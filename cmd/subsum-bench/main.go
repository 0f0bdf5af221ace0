// Command subsum-bench regenerates the tables and figures of the
// subscription-summarization paper's evaluation (Section 5), plus the
// overlay-scaling sweep and the scripted chaos soak. Speed is measured by
// the repository benchmark (BENCHMARK.json, benchmark/), not here.
//
// Usage:
//
//	subsum-bench -experiment <name>|all
//	             [-events N] [-sigmas 10,100,1000] [-csv] [-topology cw24|fig7|random]
//	             [-workers N] [-json SLO.json] [-scenario full|smoke] [-md SOAK.md]
//
// The experiment names are defined in one table-driven registry
// (experimentSpecs below); the -h text is generated from it, and a test
// asserts the two can't drift apart. Each experiment prints the same
// rows/series the paper reports; see EXPERIMENTS.md for the
// paper-versus-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/subsum/subsum/experiments"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/topology"
)

// benchEnv carries the parsed flag state into experiment runners.
type benchEnv struct {
	cfg      experiments.Config
	asCSV    bool
	jsonOut  string
	workers  int
	seed     int64
	scenario string
	mdOut    string
}

// show prints a table in the selected format, dying on error.
func (e *benchEnv) show(tab *metrics.Table, err error) {
	if err != nil {
		fatalf("%v", err)
	}
	if e.asCSV {
		fmt.Println(tab.CSV())
	} else {
		fmt.Println(tab)
	}
}

// experimentSpec is one registry entry: the -experiment name, a
// one-line summary rendered into usage output, whether "all" includes
// it, and the runner itself.
type experimentSpec struct {
	name    string
	summary string
	inAll   bool
	run     func(e *benchEnv)
}

// experimentSpecs is the single source of truth for experiment names.
// Usage text and the "all" sweep are generated from it, and
// TestRegistryDrivesUsage asserts every entry is reachable from -h, so
// adding an experiment here is the whole job.
var experimentSpecs = []experimentSpec{
	{"table1", "summary-size model vs paper Table 1", true,
		func(e *benchEnv) { e.show(experiments.Table1(), nil) }},
	{"table2", "per-broker summarization cost on the stock workload", true,
		func(e *benchEnv) { e.show(experiments.Table2(e.cfg), nil) }},
	{"fig7", "worked propagation trace on the 13-broker tree", true,
		func(e *benchEnv) {
			out, err := experiments.Fig7Trace()
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(out)
		}},
	{"fig8", "total summary traffic vs sigma", true,
		func(e *benchEnv) { e.show(experiments.Fig8(e.cfg)) }},
	{"fig9", "per-link summary traffic distribution", true,
		func(e *benchEnv) { e.show(experiments.Fig9(e.cfg)) }},
	{"fig10", "event traffic vs sigma", true,
		func(e *benchEnv) { e.show(experiments.Fig10(e.cfg)) }},
	{"fig11", "false-positive rate vs sigma", true,
		func(e *benchEnv) { e.show(experiments.Fig11(e.cfg)) }},
	{"matching", "matching cost vs summary size", true,
		func(e *benchEnv) { e.show(experiments.MatchingCost(e.cfg)) }},
	{"overlay", "propagation and routing on 24-1000-broker overlays, checked per event", true,
		func(e *benchEnv) {
			ocfg := experiments.DefaultOverlay()
			ocfg.Workers = e.workers
			ocfg.Seed = e.seed
			e.show(experiments.OverlayTable(ocfg))
		}},
	{"sizemodel", "analytic size model vs measured summaries", true,
		func(e *benchEnv) { e.show(experiments.SizeModelValidation(e.cfg)) }},
	{"crosstopo", "cost comparison across backbone topologies", true,
		func(e *benchEnv) { e.show(experiments.CrossTopology(e.cfg)) }},
	{"health", "summary-health baseline (staleness, FP attribution)", true,
		func(e *benchEnv) {
			hcfg := experiments.DefaultHealthConfig()
			hcfg.Seed = e.seed
			e.show(experiments.HealthBaseline(hcfg))
		}},
	{"ablations", "subsumption/batch ablations", true,
		func(e *benchEnv) {
			e.show(experiments.AblationSubsumptionCombo(e.cfg))
			e.show(experiments.AblationBatch(e.cfg))
		}},
	// The chaos soak sleeps real wall time in its pause phases and fails
	// the process on a control error, so "all" (the paper regeneration
	// sweep) does not include it — run it explicitly, as CI does.
	{"slo", "scripted chaos soak vs error budgets, JSON report (-json, -scenario full|smoke, -md report)", false,
		func(e *benchEnv) {
			if err := runBenchSLO(e.jsonOut, e.mdOut, e.scenario); err != nil {
				fatalf("%v", err)
			}
		}},
}

// experimentUsage renders the registry into the -experiment flag's help
// text: one "name — summary" line per entry plus the all sweep.
func experimentUsage() string {
	var b strings.Builder
	b.WriteString("experiment to run; one of:\n")
	for _, sp := range experimentSpecs {
		fmt.Fprintf(&b, "    \t  %-16s %s\n", sp.name, sp.summary)
	}
	b.WriteString("    \t  all              every experiment marked for the full sweep")
	return b.String()
}

func main() {
	var (
		experiment   = flag.String("experiment", "all", experimentUsage())
		events       = flag.Int("events", 1000, "events per broker for figure 10")
		sigmas       = flag.String("sigmas", "", "comma-separated σ sweep override (e.g. 10,100,1000)")
		topoName     = flag.String("topology", "cw24", "cw24, att33, fig7, or random:<n>:<extra>:<seed>")
		seed         = flag.Int64("seed", 1, "workload seed")
		asCSV        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		workers      = flag.Int("workers", 0, "parallel sweep width (0 = all CPUs, 1 = serial); results are identical at any width")
		jsonOut      = flag.String("json", "", "slo: write the JSON report to this file instead of stdout")
		scenarioName = flag.String("scenario", "full", "slo: chaos script to run (full or smoke)")
		mdOut        = flag.String("md", "", "slo: also write a markdown soak report to this file")
	)
	flag.Parse()

	env := benchEnv{
		cfg:      experiments.Default(),
		asCSV:    *asCSV,
		jsonOut:  *jsonOut,
		workers:  *workers,
		seed:     *seed,
		scenario: *scenarioName,
		mdOut:    *mdOut,
	}
	env.cfg.EventsPerBroker = *events
	env.cfg.Seed = *seed
	env.cfg.Workers = *workers
	if *sigmas != "" {
		var parsed []int
		for _, tok := range strings.Split(*sigmas, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				fatalf("bad -sigmas value %q", tok)
			}
			parsed = append(parsed, v)
		}
		env.cfg.Sigmas = parsed
	}
	topo, err := parseTopology(*topoName)
	if err != nil {
		fatalf("%v", err)
	}
	env.cfg.Topo = topo

	if *experiment == "all" {
		for _, sp := range experimentSpecs {
			if sp.inAll {
				sp.run(&env)
			}
		}
		return
	}
	for _, sp := range experimentSpecs {
		if sp.name == *experiment {
			sp.run(&env)
			return
		}
	}
	var names []string
	for _, sp := range experimentSpecs {
		names = append(names, sp.name)
	}
	fatalf("unknown experiment %q (want one of %s, all)", *experiment, strings.Join(names, ", "))
}

func parseTopology(name string) (*topology.Graph, error) {
	switch {
	case name == "cw24":
		return topology.CW24(), nil
	case name == "att33":
		return topology.ATT33(), nil
	case name == "fig7":
		return topology.Figure7Tree(), nil
	case strings.HasPrefix(name, "random:"):
		parts := strings.Split(name, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("random topology wants random:<n>:<extra>:<seed>")
		}
		n, err1 := strconv.Atoi(parts[1])
		extra, err2 := strconv.Atoi(parts[2])
		seed, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || n < 2 {
			return nil, fmt.Errorf("bad random topology spec %q", name)
		}
		return topology.Random(n, extra, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "subsum-bench: "+format+"\n", args...)
	os.Exit(1)
}

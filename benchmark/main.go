// Command benchmark is the repository's benchmark: five workloads drive
// the live engine (core.Network in-process, wire.Server/wire.Client over
// loopback TCP), every delivery is checked against a brute-force oracle,
// and the metrics named in BENCHMARK.json are printed with their units.
//
//	bash benchmark/run.sh --workload fanout-cw24 --seed 1 --seconds 10 --trace 0
//	    one run; the last line of standard output is the result as JSON
//	    (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//	bash benchmark/run.sh
//	    every workload, untraced then traced, as a table
//	bash benchmark/run.sh -sets 10 -out a.json
//	    ten untraced runs per workload (seeds seed..seed+9) with median,
//	    quartiles and spread against each metric's bound
//	bash benchmark/run.sh -compare a.json b.json
//	    two such sets against each other; non-zero exit beyond a bound
//
// See README.md in this directory for the workloads, the metrics and how
// they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"text/tabwriter"
)

func main() {
	var o runOpts
	var trace, sets int
	var out string
	var compare, manifest bool
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (JSON)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans and the self-time table to this file")
	flag.IntVar(&sets, "sets", 0, "make this many untraced runs of every workload and print their spread")
	flag.StringVar(&out, "out", "", "with -sets: also write the set to this file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two sets written by -sets: -compare a.json b.json")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case manifest:
		err = writeManifest(os.Stdout)
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two set files")
			break
		}
		err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	case sets > 0:
		err = runSets(os.Stdout, o, sets, out)
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// commit is the revision the binary was built from, when the build could
// see one (a checkout that is not a git repository has none).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

func printHeader(o runOpts) {
	h := host()
	fmt.Fprintf(os.Stderr, "# commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g link=%s (TCP workloads use 127.0.0.1, no real link)\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, o.seed, o.seconds, h.Link)
}

// guardedRun is run behind the host check.
func guardedRun(o runOpts) (*report, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	if err := checkHost(sp); err != nil {
		return nil, err
	}
	return run(o)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne makes one run and prints its result line: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one. It fails (and
// the process exits non-zero) when any operation failed the oracle.
func runOne(o runOpts) error {
	printHeader(o)
	rep, err := guardedRun(o)
	if err != nil {
		return err
	}
	defs := defsOf(rep)
	line := resultLine{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce %s", rep.Workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	printTable(os.Stderr, rep, defs)
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if !rep.correct() {
		return fmt.Errorf("%s: %d of %d operations failed the oracle (failed_ratio %.6f)",
			rep.Workload, rep.Failed, rep.Attempted, rep.failedRatio())
	}
	return nil
}

// runAll prints every metric of every workload: an untraced run for the
// end-to-end scorecard, then a traced run for the per-layer ledger.
func runAll(o runOpts) error {
	printHeader(o)
	bad := 0
	for _, sp := range specs {
		o.workload = sp.name
		for _, traced := range []bool{false, true} {
			o.trace = traced
			rep, err := guardedRun(o)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			printTable(os.Stdout, rep, defsOf(rep))
			if !rep.correct() {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed the oracle", bad)
	}
	return nil
}

// defsOf returns the metrics a run reports: end-to-end from an untraced
// run, per-layer from a traced one.
func defsOf(rep *report) []metricDef {
	if rep.Traced {
		return perLayer
	}
	return endToEnd
}

func printTable(w *os.File, rep *report, defs []metricDef) {
	kind := "end-to-end (untraced run)"
	if rep.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s seed=%d: %s; attempted=%d failed=%d failed_ratio=%g\n",
		rep.Workload, rep.Seed, kind, rep.Attempted, rep.Failed, rep.failedRatio())
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, d := range defs {
		samples := ""
		if n, ok := rep.Samples[d.Name]; ok {
			samples = fmt.Sprintf("n=%d", n)
		}
		note := samples
		if d.Moves != "" {
			note = "should move " + d.Moves
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", d.Name, rep.Metrics[d.Name], d.Unit, note)
	}
	tw.Flush()
}

// manifestDoc is BENCHMARK.json. The tables in metrics.go and workloads.go
// are its source; a test fails when the committed file and they differ.
type manifestDoc struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []manifestEntry   `json:"workloads"`
	EndToEnd   []manifestMetric  `json:"end_to_end"`
	PerLayer   []manifestPerUnit `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestPerUnit struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long the driver lets one run measure. With five
// workloads the driver makes 114 runs; see README, "Run time".
const runSeconds = 10

func manifestOf() manifestDoc {
	doc := manifestDoc{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, manifestEntry{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, manifestPerUnit{d.Name, d.Unit, d.Better})
	}
	return doc
}

func writeManifest(w *os.File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(manifestOf())
}

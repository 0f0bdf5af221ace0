package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/subsum/subsum/internal/scenario"
)

// sloReport is the chaos-soak report: the full scenario result
// (per-phase verdicts, budget burn, recovery times) under generation
// metadata. CI's scenario-smoke job archives it.
type sloReport struct {
	GeneratedAt string           `json:"generated_at"`
	Scenario    *scenario.Result `json:"scenario"`
}

// runBenchSLO runs the scripted chaos scenario ("full" or "smoke") with
// the SLO monitor attached, writes the JSON report (to jsonPath, else
// stdout) and optionally a markdown soak report, and returns an error —
// a nonzero exit — when any phase misses its control expectations.
// The run ignores -seed on purpose: every report of one script must
// reproduce byte-for-byte (modulo the latency SLI, which is wall-clock).
func runBenchSLO(jsonPath, mdPath, scriptName string) error {
	cfg := scenario.DefaultConfig()
	var phases []scenario.Phase
	switch scriptName {
	case "full":
		phases = scenario.DefaultScript(cfg.Topology.Len())
	case "smoke":
		phases = scenario.SmokeScript(cfg.Topology.Len())
	default:
		return fmt.Errorf("unknown -scenario %q (want full or smoke)", scriptName)
	}

	r, err := scenario.NewRunner(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	res, err := r.Run(scriptName, phases)
	if err != nil {
		return err
	}

	rep := sloReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scenario:    res,
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if jsonPath == "" {
		if _, err := os.Stdout.Write(out); err != nil {
			return err
		}
	} else if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
		return err
	}
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(soakMarkdown(&rep)), 0o644); err != nil {
			return err
		}
	}

	breached := 0
	for _, ph := range res.Phases {
		if len(ph.Breached) > 0 {
			breached++
		}
	}
	where := jsonPath
	if where == "" {
		where = "stdout"
	}
	fmt.Printf("slo: script %s on %s (%d brokers), %d phases (%d with breaches), passed=%v; wrote %s\n",
		res.Script, res.Topology, res.Brokers, len(res.Phases), breached, res.Passed, where)
	if !res.Passed {
		return fmt.Errorf("scenario %q failed %d control expectation(s):\n  %s",
			scriptName, len(res.ControlErrors), strings.Join(res.ControlErrors, "\n  "))
	}
	return nil
}

// soakMarkdown renders the phase-correlated soak report: one row per
// phase with its injected fault, observed breaches, and recovery time,
// then the final per-objective budget table.
func soakMarkdown(rep *sloReport) string {
	res := rep.Scenario
	var b strings.Builder
	fmt.Fprintf(&b, "# Chaos soak report — %s\n\n", res.Script)
	fmt.Fprintf(&b, "Topology %s (%d brokers), seed %d, generated %s.\n\n",
		res.Topology, res.Brokers, res.Seed, rep.GeneratedAt)
	status := "**PASSED** — every breach occurred only in its injected phase and cleared within the recovery objective."
	if !res.Passed {
		status = fmt.Sprintf("**FAILED** — %d control error(s), listed below.", len(res.ControlErrors))
	}
	b.WriteString(status + "\n\n")

	b.WriteString("## Phases\n\n")
	b.WriteString("| # | phase | ticks | fault | breached | recovery ticks | max bytes/period |\n")
	b.WriteString("|--:|-------|------:|-------|----------|---------------:|-----------------:|\n")
	for i := range res.Phases {
		ph := &res.Phases[i]
		breached := "—"
		if len(ph.Breached) > 0 {
			sorted := append([]string(nil), ph.Breached...)
			sort.Strings(sorted)
			breached = strings.Join(sorted, ", ")
		}
		recovery := "—"
		if ph.Recovery {
			recovery = fmt.Sprintf("%d", ph.RecoveryTicks)
		}
		fmt.Fprintf(&b, "| %d | %s | %d | %s | %s | %s | %.0f |\n",
			ph.Index, ph.Name, ph.Ticks, faultLabel(ph), breached, recovery, ph.BytesPerPeriodMax)
	}

	b.WriteString("\n## Final error budgets\n\n")
	b.WriteString("| objective | state | SLI | target | fast burn | slow burn | budget left |\n")
	b.WriteString("|-----------|-------|----:|-------:|----------:|----------:|------------:|\n")
	if res.Final != nil {
		for i := range res.Final.Verdicts {
			v := &res.Final.Verdicts[i]
			fmt.Fprintf(&b, "| %s | %s | %.4g | %s %.4g | %.2f | %.2f | %.0f%% |\n",
				v.Name, strings.ToUpper(string(v.State)), v.SLI, v.Op, v.Target,
				v.FastBurn, v.SlowBurn, 100*v.BudgetRemaining)
		}
	}

	if len(res.ControlErrors) > 0 {
		b.WriteString("\n## Control errors\n\n")
		for _, e := range res.ControlErrors {
			fmt.Fprintf(&b, "- %s\n", e)
		}
	}
	return b.String()
}

// faultLabel is the soak table's one-word description of what a phase
// injected.
func faultLabel(ph *scenario.PhaseResult) string {
	switch {
	case ph.Fault.Kind == scenario.FaultPartition:
		return fmt.Sprintf("partition %d/%d", len(ph.Fault.SideA), len(ph.Fault.SideB))
	case ph.Fault.Kind == scenario.FaultLoss:
		return fmt.Sprintf("loss %s %.0f%%", ph.Fault.LossKind, 100*ph.Fault.LossRate)
	case ph.Fault.Kind == scenario.FaultPause:
		return "pause relay"
	case ph.ChurnPerPeriod > 0:
		return fmt.Sprintf("churn %d/period", ph.ChurnPerPeriod)
	case ph.Recovery:
		return "heal"
	default:
		return "—"
	}
}

package main

import (
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/scenario"
	"github.com/subsum/subsum/internal/slo"
)

// TestRegistryDrivesUsage pins the satellite contract: every registered
// experiment appears in the generated usage text (so -h can never drift
// from the switch again), names are unique, and every entry is
// runnable.
func TestRegistryDrivesUsage(t *testing.T) {
	usage := experimentUsage()
	seen := map[string]bool{}
	for _, sp := range experimentSpecs {
		if sp.name == "" || sp.name == "all" {
			t.Fatalf("bad experiment name %q", sp.name)
		}
		if seen[sp.name] {
			t.Fatalf("duplicate experiment %q", sp.name)
		}
		seen[sp.name] = true
		if sp.summary == "" {
			t.Errorf("experiment %q has no usage summary", sp.name)
		}
		if sp.run == nil {
			t.Errorf("experiment %q has no runner", sp.name)
		}
		if !strings.Contains(usage, sp.name+" ") && !strings.Contains(usage, sp.name+"\n") {
			t.Errorf("usage text missing experiment %q:\n%s", sp.name, usage)
		}
		if !strings.Contains(usage, sp.summary) {
			t.Errorf("usage text missing summary for %q", sp.name)
		}
	}
	if !strings.Contains(usage, "all ") {
		t.Errorf("usage text missing the all sweep:\n%s", usage)
	}
	// benchmatch and benchprop existed to price production against the
	// reference copies that are now test oracles, and benchchurn and
	// benchoverlay wrote JSON baselines the repository benchmark replaced;
	// asking for one must be an unknown-experiment error, not a silently
	// revived comparison.
	for _, retired := range []string{"benchmatch", "benchprop", "benchchurn", "benchoverlay"} {
		if seen[retired] {
			t.Errorf("retired experiment %q is registered again", retired)
		}
	}
	// The overlay sweep and the chaos soak have no other entry point (the
	// repository benchmark does not run them yet), and CI's scenario-smoke
	// job calls slo by name.
	for _, kept := range []string{"overlay", "slo"} {
		if !seen[kept] {
			t.Errorf("experiment %q is not registered", kept)
		}
	}
	// The chaos soak must stay out of the paper-regeneration sweep: it
	// sleeps wall time and exits nonzero on control failure.
	for _, sp := range experimentSpecs {
		if sp.name == "slo" && sp.inAll {
			t.Error("slo experiment must not run under -experiment all")
		}
	}
}

// TestSoakMarkdown renders the soak report from a canned result and
// checks the phase and budget tables.
func TestSoakMarkdown(t *testing.T) {
	rep := sloReport{
		GeneratedAt: "2026-01-01T00:00:00Z",
		Scenario: &scenario.Result{
			Script: "smoke", Topology: "cw24", Brokers: 24, Seed: 431,
			Phases: []scenario.PhaseResult{
				{Name: "baseline", Index: 0, Ticks: 8, BytesPerPeriodMax: 512},
				{
					Name: "partition", Index: 1, Ticks: 8,
					Fault:    scenario.Fault{Kind: scenario.FaultPartition, SideA: []int{0, 1}, SideB: []int{2, 3}},
					Breached: []string{"delivery_loss", "convergence_staleness"},
				},
				{Name: "heal-partition", Index: 2, Ticks: 10, Recovery: true, RecoveryTicks: 3},
			},
			Final: &slo.Report{Verdicts: []slo.Verdict{
				{Name: "delivery_loss", State: slo.StateOK, Op: slo.OpLE, BudgetRemaining: 1},
			}},
			Passed: true,
		},
	}
	md := soakMarkdown(&rep)
	for _, want := range []string{
		"# Chaos soak report — smoke",
		"**PASSED**",
		"partition 2/2",
		"convergence_staleness, delivery_loss",
		"| 2 | heal-partition | 10 | heal | — | 3 |",
		"| delivery_loss | OK |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("soak markdown missing %q:\n%s", want, md)
		}
	}
	fail := rep
	fail.Scenario.Passed = false
	fail.Scenario.ControlErrors = []string{`phase "baseline": unexpected breach`}
	md = soakMarkdown(&fail)
	if !strings.Contains(md, "**FAILED**") || !strings.Contains(md, "unexpected breach") {
		t.Errorf("failed soak markdown lacks control errors:\n%s", md)
	}
}

func TestParseTopology(t *testing.T) {
	g, err := parseTopology("cw24")
	if err != nil || g.Len() != 24 {
		t.Fatalf("cw24: %v %v", g, err)
	}
	g, err = parseTopology("att33")
	if err != nil || g.Len() != 33 {
		t.Fatalf("att33: %v %v", g, err)
	}
	g, err = parseTopology("fig7")
	if err != nil || g.Len() != 13 {
		t.Fatalf("fig7: %v %v", g, err)
	}
	g, err = parseTopology("random:20:5:7")
	if err != nil || g.Len() != 20 || g.NumEdges() != 24 {
		t.Fatalf("random: %v %v", g, err)
	}
	for _, in := range []string{"", "nope", "random:", "random:1:2:3", "random:x:2:3", "random:9:2"} {
		if _, err := parseTopology(in); err == nil {
			t.Errorf("parseTopology(%q) accepted", in)
		}
	}
}

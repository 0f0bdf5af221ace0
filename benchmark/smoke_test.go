package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// exactMetrics are pure functions of the seed on a static workload: they
// come from the engine's counters over whole passes of the event pool.
var exactMetrics = []string{"hops_per_event", "wire_bytes_per_event", "propagation_bytes_per_period"}

// TestSmoke runs every workload at a hundredth of its size: every named
// metric is there, finite and (end-to-end) non-zero, nothing fails the
// oracle, and the counter-based metrics repeat exactly for one seed and
// move with another.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		o := runOpts{workload: sp.name, seed: 1, seconds: 0.2, size: small}
		first, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		again, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		o.seed = 2
		other, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		o.seed, o.trace = 1, true
		traced, err := run(o)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		for _, rep := range []*report{first, again, other, traced} {
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s seed %d traced=%v: failed %d of %d", sp.name, rep.Seed, rep.Traced, rep.Failed, rep.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := rep.Metrics[d.Name]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) || d.Unit == "" {
					t.Errorf("%s: end-to-end %s = %v (present %v)", sp.name, d.Name, v, ok)
				}
			}
		}
		for _, d := range perLayer {
			if v, ok := traced.Metrics[d.Name]; !ok || math.IsInf(v, 0) || math.IsNaN(v) || d.Unit == "" {
				t.Errorf("%s: per-layer %s = %v (present %v)", sp.name, d.Name, v, ok)
			}
		}
		if sp.churn {
			continue // hops and bytes depend on how periods interleave with events
		}
		for _, name := range exactMetrics {
			if first.Metrics[name] != again.Metrics[name] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v, %v", sp.name, name, first.Metrics[name], again.Metrics[name])
			}
			if first.Metrics[name] == other.Metrics[name] {
				t.Errorf("%s: %s is %v for seed 1 and seed 2 alike", sp.name, name, first.Metrics[name])
			}
		}
	}
}

// TestManifest holds the committed BENCHMARK.json to the program's own
// tables and to the limits of the driver's contract.
func TestManifest(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifestDoc
	if err := json.Unmarshal(buf, &onDisk); err != nil {
		t.Fatal(err)
	}
	doc := manifestOf()
	if !reflect.DeepEqual(onDisk, doc) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with -manifest")
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(buf))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range doc.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	// Five workloads make 4 + 22×5 runs, which with two builds must end
	// within 3420 s: a run may average about 28 s, measurement included.
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || (4+22*len(doc.Workloads))*(doc.RunSeconds+12) > 3420-240 {
		t.Errorf("run_seconds %d does not fit the driver's total", doc.RunSeconds)
	}
}

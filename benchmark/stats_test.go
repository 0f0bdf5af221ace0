package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]int64, 2000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got := tailPercentile(xs); got != 1980 { // p99: 20 samples beyond
		t.Errorf("2000 samples: %d", got)
	}
	if got := tailPercentile(xs[:500]); got != 475 { // p99 would leave 5; p95 leaves 25
		t.Errorf("500 samples: %d", got)
	}
	if got := tailPercentile(xs[:50]); got != 50 {
		t.Errorf("50 samples: %d", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("event", "harness", 0, -1, 7)
	tr.add("core.Publish", "core", 0, 10, root, 7)
	tr.add("deliver.callback", "harness", 40, 60, root, 7) // two callbacks on
	tr.add("deliver.callback", "harness", 50, 70, root, 7) // other goroutines overlap
	tr.end(root, 100)
	for _, row := range tr.selfTimes() {
		switch row.Name {
		case "event":
			if row.TotalNs != 100 || row.SelfNs != 100-10-30 {
				t.Errorf("event: total %d self %d", row.TotalNs, row.SelfNs)
			}
		case "deliver.callback":
			if row.Count != 2 || row.SelfNs != 40 {
				t.Errorf("callback: count %d self %d", row.Count, row.SelfNs)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	buf, _ := os.ReadFile(path)
	if err := json.Unmarshal(buf, &doc); err != nil || len(doc.Spans) != 4 || doc.Spans[1].Seq != 7 {
		t.Errorf("trace file: %v, %d spans", err, len(doc.Spans))
	}
}

// setOf builds a set in which every workload's every metric is `value`,
// except overrides.
func setOf(t *testing.T, dir, name string, nproc int, value float64, overrides map[string]float64) string {
	t.Helper()
	s := runSet{Host: hostHeader{NumCPU: nproc, GOMAXPROCS: nproc, Link: "loopback"}, Seconds: 10}
	for _, sp := range specs {
		for i := 0; i < 3; i++ {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = value
			}
			for k, v := range overrides {
				m[k] = v
			}
			s.Runs = append(s.Runs, &report{Workload: sp.name, Seed: int64(i), Attempted: 1, Metrics: m})
		}
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	base := setOf(t, dir, "a.json", 2, 100, nil)
	same := setOf(t, dir, "b.json", 2, 100, nil)
	var out bytes.Buffer
	if err := compareSets(&out, base, same); err != nil {
		t.Errorf("identical sets: %v", err)
	}
	// events_per_s is better when higher: 70 against 100 is 30 % worse, past its bound.
	slower := setOf(t, dir, "c.json", 2, 100, map[string]float64{"events_per_s": 70})
	out.Reset()
	if err := compareSets(&out, base, slower); err == nil || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 30%% drop in events_per_s passed: %v\n%s", err, out.String())
	}
	faster := setOf(t, dir, "d.json", 2, 100, map[string]float64{"events_per_s": 150, "deliver_p50_us": 50})
	if err := compareSets(&out, base, faster); err != nil {
		t.Errorf("an improvement was refused: %v", err)
	}
	other := setOf(t, dir, "e.json", 4, 100, nil)
	if err := compareSets(&out, base, other); err == nil {
		t.Error("sets from hosts of different size were compared")
	}
}

func TestHostGuard(t *testing.T) {
	sp, _ := specByName("tcp-fanout-cw24")
	sp.generators = math.MaxInt32
	if err := checkHost(sp); err == nil {
		t.Error("a workload with more load generators than CPUs was allowed to run")
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// statusKey indexes compare output by "name metric" so tests can assert
// on individual comparison rows.
func statusKey(rows []row) map[string]string {
	m := map[string]string{}
	for _, r := range rows {
		m[r.name+" "+r.metric] = r.status
	}
	return m
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", `{"results":[
		{"name":"A","ns_per_op":100},
		{"name":"B","ns_per_op":100},
		{"name":"C","ns_per_op":100},
		{"name":"Gone","ns_per_op":50}]}`)
	cur := writeReport(t, dir, "cur.json", `{"results":[
		{"name":"A","ns_per_op":105},
		{"name":"B","ns_per_op":125},
		{"name":"C","ns_per_op":80},
		{"name":"New","ns_per_op":10}]}`)

	b, _, err := loadReport(base)
	if err != nil {
		t.Fatal(err)
	}
	c, order, err := loadReport(cur)
	if err != nil {
		t.Fatal(err)
	}
	rows, regressions := compare(b, c, order, 10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (B)", regressions)
	}
	status := statusKey(rows)
	if status["A ns/op"] != "ok" {
		t.Errorf("A: %q", status["A ns/op"])
	}
	if !strings.HasPrefix(status["B ns/op"], "REGRESSION") {
		t.Errorf("B: %q", status["B ns/op"])
	}
	if status["C ns/op"] != "improved" {
		t.Errorf("C: %q", status["C ns/op"])
	}
	if status["New ns/op"] != "new (no baseline)" {
		t.Errorf("New: %q", status["New ns/op"])
	}
	if status["Gone ns/op"] != "missing from current run" {
		t.Errorf("Gone: %q", status["Gone ns/op"])
	}
	// Neither report carries allocation fields, so no allocs/B rows.
	for key := range status {
		if strings.Contains(key, "allocs/op") || strings.Contains(key, "B/op") {
			t.Errorf("unexpected allocation row %q without allocation data", key)
		}
	}

	var sb strings.Builder
	writeMarkdown(&sb, "test", rows, regressions)
	md := sb.String()
	if !strings.Contains(md, "| B | ns/op | 100 | 125 | +25.0% | REGRESSION") {
		t.Errorf("markdown missing regression row:\n%s", md)
	}
	if !strings.Contains(md, "**1 result(s) regressed**") {
		t.Errorf("markdown missing headline:\n%s", md)
	}
}

// TestCompareFlagsAllocationRegressions is the satellite regression
// test: a pooled benchmark that starts allocating again must be flagged
// even when its ns/op stays flat, and B/op growth past the threshold is
// flagged independently.
func TestCompareFlagsAllocationRegressions(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", `{"results":[
		{"name":"Pooled","ns_per_op":100,"allocs_per_op":0,"bytes_per_op":0},
		{"name":"Mapped","ns_per_op":100,"allocs_per_op":27,"bytes_per_op":1000},
		{"name":"Better","ns_per_op":100,"allocs_per_op":5,"bytes_per_op":1000}]}`)
	cur := writeReport(t, dir, "cur.json", `{"results":[
		{"name":"Pooled","ns_per_op":100,"allocs_per_op":2,"bytes_per_op":64},
		{"name":"Mapped","ns_per_op":100,"allocs_per_op":27,"bytes_per_op":1200},
		{"name":"Better","ns_per_op":100,"allocs_per_op":3,"bytes_per_op":990}]}`)

	b, _, err := loadReport(base)
	if err != nil {
		t.Fatal(err)
	}
	c, order, err := loadReport(cur)
	if err != nil {
		t.Fatal(err)
	}
	rows, regressions := compare(b, c, order, 10)
	status := statusKey(rows)
	// Pooled: 0→2 allocs and 0→64 B are both regressions; ns/op is flat.
	if status["Pooled ns/op"] != "ok" {
		t.Errorf("Pooled ns/op: %q", status["Pooled ns/op"])
	}
	if status["Pooled allocs/op"] != "REGRESSION (allocs increased)" {
		t.Errorf("Pooled allocs/op: %q", status["Pooled allocs/op"])
	}
	if status["Pooled B/op"] != "REGRESSION (was 0 B/op)" {
		t.Errorf("Pooled B/op: %q", status["Pooled B/op"])
	}
	// Mapped: allocs unchanged (ok), bytes +20% past the 10% threshold.
	if status["Mapped allocs/op"] != "ok" {
		t.Errorf("Mapped allocs/op: %q", status["Mapped allocs/op"])
	}
	if !strings.HasPrefix(status["Mapped B/op"], "REGRESSION") {
		t.Errorf("Mapped B/op: %q", status["Mapped B/op"])
	}
	// Better: allocs dropped (improved), bytes -1% within threshold (ok).
	if status["Better allocs/op"] != "improved" {
		t.Errorf("Better allocs/op: %q", status["Better allocs/op"])
	}
	if status["Better B/op"] != "ok" {
		t.Errorf("Better B/op: %q", status["Better B/op"])
	}
	if regressions != 3 {
		t.Fatalf("regressions = %d, want 3", regressions)
	}

	var sb strings.Builder
	writeMarkdown(&sb, "allocs", rows, regressions)
	md := sb.String()
	if !strings.Contains(md, "| Pooled | allocs/op | 0 | 2 | +0.0% | REGRESSION (allocs increased)") {
		t.Errorf("markdown missing alloc regression row:\n%s", md)
	}
}

// TestCompareSkipsAllocsWhenOneSideLacksThem covers the mixed-version
// case: a baseline written before allocation tracking compares ns/op
// only, without phantom zero-alloc rows.
func TestCompareSkipsAllocsWhenOneSideLacksThem(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", `{"results":[{"name":"A","ns_per_op":100}]}`)
	cur := writeReport(t, dir, "cur.json", `{"results":[{"name":"A","ns_per_op":100,"allocs_per_op":9,"bytes_per_op":128}]}`)

	b, _, err := loadReport(base)
	if err != nil {
		t.Fatal(err)
	}
	c, order, err := loadReport(cur)
	if err != nil {
		t.Fatal(err)
	}
	rows, regressions := compare(b, c, order, 10)
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0", regressions)
	}
	if len(rows) != 1 || rows[0].metric != "ns/op" {
		t.Fatalf("rows = %+v, want single ns/op row", rows)
	}
}

func TestCompareFlagsOverlayRegressions(t *testing.T) {
	// bytes_per_period and hops_per_event are lower-is-better like ns/op
	// but seeded-deterministic: a rise past the threshold is a real
	// algorithmic regression. Rows lacking either field on one side skip
	// that comparison (mixed-version reports).
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", `{"results":[
		{"name":"BytesUp","ns_per_op":100,"bytes_per_period":100000,"hops_per_event":20},
		{"name":"HopsDown","ns_per_op":100,"bytes_per_period":100000,"hops_per_event":20},
		{"name":"Flat","ns_per_op":100,"bytes_per_period":100000,"hops_per_event":20},
		{"name":"OldReport","ns_per_op":100}]}`)
	cur := writeReport(t, dir, "cur.json", `{"results":[
		{"name":"BytesUp","ns_per_op":100,"bytes_per_period":125000,"hops_per_event":21},
		{"name":"HopsDown","ns_per_op":100,"bytes_per_period":99000,"hops_per_event":12},
		{"name":"Flat","ns_per_op":100,"bytes_per_period":101000,"hops_per_event":20},
		{"name":"OldReport","ns_per_op":100,"bytes_per_period":5,"hops_per_event":5}]}`)

	b, _, err := loadReport(base)
	if err != nil {
		t.Fatal(err)
	}
	c, order, err := loadReport(cur)
	if err != nil {
		t.Fatal(err)
	}
	rows, regressions := compare(b, c, order, 10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (BytesUp bytes/period)", regressions)
	}
	status := statusKey(rows)
	if !strings.HasPrefix(status["BytesUp bytes/period"], "REGRESSION") {
		t.Errorf("BytesUp bytes/period: %q", status["BytesUp bytes/period"])
	}
	if status["BytesUp hops/event"] != "ok" {
		t.Errorf("BytesUp hops/event: %q", status["BytesUp hops/event"])
	}
	if status["HopsDown bytes/period"] != "ok" {
		t.Errorf("HopsDown bytes/period: %q", status["HopsDown bytes/period"])
	}
	if status["HopsDown hops/event"] != "improved" {
		t.Errorf("HopsDown hops/event: %q", status["HopsDown hops/event"])
	}
	if status["Flat bytes/period"] != "ok" || status["Flat hops/event"] != "ok" {
		t.Errorf("Flat: %q / %q", status["Flat bytes/period"], status["Flat hops/event"])
	}
	// Baseline lacks the overlay fields for OldReport: no phantom rows.
	if _, ok := status["OldReport bytes/period"]; ok {
		t.Error("OldReport produced a bytes/period row without baseline data")
	}
	if _, ok := status["OldReport hops/event"]; ok {
		t.Error("OldReport produced a hops/event row without baseline data")
	}
	// Overlay rows skip the ns/op comparison — a single propagation
	// period's wall time is too short to time stably, and the seeded
	// metrics are the verdict. OldReport (no overlay data in the
	// baseline) still gets one.
	for _, name := range []string{"BytesUp", "HopsDown", "Flat"} {
		if _, ok := status[name+" ns/op"]; ok {
			t.Errorf("%s produced a noisy ns/op row despite carrying overlay metrics", name)
		}
	}
	if status["OldReport ns/op"] != "ok" {
		t.Errorf("OldReport ns/op: %q", status["OldReport ns/op"])
	}
}

func TestCompareAgainstRealBaselines(t *testing.T) {
	// The committed reports must parse and compare clean against
	// themselves (zero delta everywhere), each producing rows for the
	// metrics it exists to carry: allocation data in the churn report,
	// the seeded bytes/period and hops/event in the overlay ladder.
	for path, carried := range map[string][]string{
		"../../BENCH_churn.json":   {"allocs/op", "B/op"},
		"../../BENCH_overlay.json": {"bytes/period", "hops/event"},
	} {
		m, order, err := loadReport(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(m) == 0 {
			t.Fatalf("%s: no results", path)
		}
		rows, regressions := compare(m, m, order, 10)
		if regressions != 0 {
			t.Fatalf("%s vs itself: %d regressions", path, regressions)
		}
		metrics := map[string]int{}
		for _, r := range rows {
			if r.status != "ok" || r.deltaPct != 0 {
				t.Fatalf("%s: self-compare row %+v", path, r)
			}
			metrics[r.metric]++
		}
		for _, metric := range carried {
			if metrics[metric] == 0 {
				t.Fatalf("%s: no %s rows in self-compare (%v)", path, metric, metrics)
			}
		}
	}
}

// TestAllocZeroGate covers the zero-alloc mode end to end on canned
// go test -bench output: matched clean benchmarks pass, an allocating
// match is a violation, and an unmatched pattern is one too.
func TestAllocZeroGate(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: github.com/subsum/subsum/internal/summary
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMatcherMatchKeys-8             	    1000	      4646 ns/op	       0 B/op	       0 allocs/op
BenchmarkMatcherMatchKeysInstrumented-8 	    1000	      6631 ns/op	       0 B/op	       0 allocs/op
BenchmarkCreditDelivery-8               	   10000	        33.53 ns/op	       0 B/op	       0 allocs/op
BenchmarkDeliverExactPruned-8           	     200	    636487 ns/op	    7691 B/op	       9 allocs/op
BenchmarkNoMemColumns-8                 	     500	      1000 ns/op
PASS
ok  	github.com/subsum/subsum/internal/summary	0.027s
`
	results, err := parseBenchText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// The line without -benchmem columns is skipped, the rest parse.
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(results), results)
	}
	if results[3].name != "BenchmarkDeliverExactPruned" || results[3].allocsOp != 9 || results[3].bytesOp != 7691 {
		t.Fatalf("pruned row parsed as %+v", results[3])
	}

	// Clean gate: both matcher benchmarks and the credit path pass.
	checked, violations, err := checkAllocZero(results,
		"BenchmarkMatcherMatchKeys.*, BenchmarkCreditDelivery")
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) != 3 || len(violations) != 0 {
		t.Fatalf("clean gate: checked %d, violations %+v", len(checked), violations)
	}

	// An allocating benchmark caught by the pattern is a violation.
	_, violations, err = checkAllocZero(results, "BenchmarkDeliverExact.*")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || violations[0].name != "BenchmarkDeliverExactPruned" {
		t.Fatalf("alloc violation = %+v", violations)
	}

	// A pattern matching nothing is a violation: a renamed benchmark
	// must not silently drop out of the gate.
	_, violations, err = checkAllocZero(results, "BenchmarkRenamedAway")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || violations[0].name != "BenchmarkRenamedAway" {
		t.Fatalf("unmatched-pattern violation = %+v", violations)
	}

	// The name is anchored: a prefix pattern without .* matches nothing.
	_, violations, _ = checkAllocZero(results, "BenchmarkMatcher")
	if len(violations) != 1 {
		t.Fatalf("anchoring: violations = %+v", violations)
	}

	// Markdown covers both violation shapes.
	var buf bytes.Buffer
	checked, violations, _ = checkAllocZero(results, "BenchmarkDeliverExact.*,BenchmarkRenamedAway")
	writeAllocMarkdown(&buf, checked, violations)
	out := buf.String()
	for _, want := range []string{
		"zero-alloc gate",
		"2 violation(s)",
		"9 allocs/op (7691 B/op), want 0",
		"no benchmark matched this pattern",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}

	// A malformed pattern errors instead of silently gating nothing.
	if _, _, err := checkAllocZero(results, "Benchmark["); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

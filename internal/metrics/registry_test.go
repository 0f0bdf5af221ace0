package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("events") != c {
		t.Fatal("same name returned a different counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative Add on counter did not panic")
			}
		}()
		c.Add(-1)
	}()

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestCounterFunc: a function counter or gauge reads its source at
// every snapshot, replaces a plain instrument of the same name, and Reset
// leaves it alone (its owner keeps the count).
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	r.Counter("fp{price}").Add(9)
	r.Gauge("depth").Set(9)
	var n int64
	r.CounterFunc("fp{price}", func() int64 { return n })
	r.GaugeFunc("depth", func() int64 { return -n })
	n = 3
	if m := r.Map(); m["fp{price}"] != 3 || m["depth"] != -3 {
		t.Fatalf("snapshot = %v, %v, want the functions' 3, -3", m["fp{price}"], m["depth"])
	}
	r.Reset()
	n = 4
	if got := r.Counter("fp{price}").Value(); got != 4 {
		t.Fatalf("after Reset = %d, want the function's 4", got)
	}
	if got := r.Gauge("depth").Value(); got != -4 {
		t.Fatalf("gauge after Reset = %d, want the function's -4", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// Uniform 0..8 in 0.5 steps: quantiles are known to bucket precision.
	for v := 0.5; v <= 8; v += 0.5 {
		h.Observe(v)
	}
	if h.Count() != 16 {
		t.Fatalf("count = %d, want 16", h.Count())
	}
	if got, want := h.Sum(), 68.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Interpolated quantiles of a uniform sample track the value range.
	if p50 := h.Quantile(0.50); p50 < 3 || p50 > 5 {
		t.Fatalf("p50 = %v, want ≈4", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 7 || p99 > 8 {
		t.Fatalf("p99 = %v, want ≈8", p99)
	}
	// Out-of-range observations land in the open bucket and clamp to the
	// last bound.
	h.Observe(1e9)
	if q := h.Quantile(1.0); q != 8 {
		t.Fatalf("overflow quantile = %v, want clamp to 8", q)
	}
	bounds, counts := h.Buckets()
	if len(counts) != len(bounds)+1 {
		t.Fatalf("%d counts for %d bounds", len(counts), len(bounds))
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("open bucket = %d, want 1", counts[len(counts)-1])
	}
}

func TestHistogramQuantileKnownDistribution(t *testing.T) {
	// 1..1000 against fine buckets: p50/p95/p99 must land within one
	// bucket width of the exact order statistics.
	h := NewHistogram(ExpBuckets(1, 1.25, 40))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 500, 125},
		{0.95, 950, 240},
		{0.99, 990, 250},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.2f = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	if h.Quantile(0.5) >= h.Quantile(0.95) || h.Quantile(0.95) >= h.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramEmptyAndValidation(t *testing.T) {
	// An empty histogram has no quantiles: every q reports NaN, never a
	// fabricated 0 that could be confused with a real all-zero sample.
	h := NewHistogram([]float64{1, 2})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); !math.IsNaN(got) {
			t.Fatalf("empty histogram Quantile(%v) = %v, want NaN", q, got)
		}
	}
	// But a registry snapshot of an empty histogram stays JSON-clean: the
	// derived quantile samples report 0, not NaN.
	r := NewRegistry()
	r.Histogram("empty_hist", []float64{1, 2})
	for _, s := range r.Snapshot() {
		if math.IsNaN(s.Value) {
			t.Fatalf("snapshot sample %s is NaN", s.Name)
		}
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON with empty histogram: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds accepted")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// TestHistogramOverflowBucketQuantile pins the open-bucket behaviour:
// when the target rank lands among observations beyond the last finite
// bound, the estimate clamps to that bound instead of interpolating
// toward +Inf.
func TestHistogramOverflowBucketQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5) // first bucket
	for i := 0; i < 9; i++ {
		h.Observe(100) // open bucket
	}
	for _, q := range []float64{0.5, 0.95, 1.0} {
		got := h.Quantile(q)
		if math.IsInf(got, 1) || math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = %v, must be finite", q, got)
		}
		if got != 2 {
			t.Fatalf("Quantile(%v) = %v, want clamp to last finite bound 2", q, got)
		}
	}
	// A quantile still inside the finite buckets is unaffected.
	if got := h.Quantile(0.05); got > 1 {
		t.Fatalf("Quantile(0.05) = %v, want ≤ 1", got)
	}
}

func TestRegistrySnapshotSortedFlat(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_last").Add(3)
	r.Gauge("a_first").Set(-2)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q ≥ %q", snap[i-1].Name, snap[i].Name)
		}
	}
	m := r.Map()
	if m["z_last"] != 3 || m["a_first"] != -2 {
		t.Fatalf("map = %v", m)
	}
	if m["lat.count"] != 2 || m["lat.sum"] != 5.5 {
		t.Fatalf("histogram derived samples wrong: %v", m)
	}
	for _, want := range []string{"lat.mean", "lat.p50", "lat.p95", "lat.p99"} {
		if _, ok := m[want]; !ok {
			t.Errorf("snapshot missing %s", want)
		}
	}
}

func TestRegistryTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(7)
	r.Gauge("y").Set(2)
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got := text.String(); !strings.Contains(got, "x 7\n") || !strings.Contains(got, "y 2\n") {
		t.Fatalf("text = %q", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["x"] != 7 || m["y"] != 2 {
		t.Fatalf("json = %v", m)
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("broker_matches")
	v.With("3").Inc()
	v.With("3").Inc()
	v.With("11").Inc()
	if got := r.Counter("broker_matches{3}").Value(); got != 2 {
		t.Fatalf("broker_matches{3} = %d, want 2", got)
	}
	if got := r.Counter("broker_matches{11}").Value(); got != 1 {
		t.Fatalf("broker_matches{11} = %d, want 1", got)
	}
	if name := Label("f", "a", "b"); name != "f{a,b}" {
		t.Fatalf("Label = %q", name)
	}
	if name := Label("f"); name != "f" {
		t.Fatalf("Label no-labels = %q", name)
	}
	g := r.GaugeVec("depth").With("0")
	g.Set(5)
	if r.Gauge("depth{0}").Value() != 5 {
		t.Fatal("gauge family miswired")
	}
	h := r.HistogramVec("lat", []float64{1}).With("0")
	h.Observe(0.5)
	if r.Histogram("lat{0}", nil).Count() != 1 {
		t.Fatal("histogram family miswired")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", []float64{1, 2, 4})
			for i := 0; i < 1000; i++ {
				c.Inc()
				r.Gauge(fmt.Sprintf("g%d", w)).Set(int64(i))
				h.Observe(float64(i % 5))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
	if got := r.Histogram("lat", nil).Count(); got != 8000 {
		t.Fatalf("lat count = %d, want 8000", got)
	}
}

// TestRegistryHotPathZeroAllocs proves the instrument hot paths allocate
// nothing: a counter is looked up once at wiring time and incremented
// directly, and a histogram observation is a bucket scan plus a CAS sum.
func TestRegistryHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Errorf("Counter.Inc allocates %v/op", allocs)
	}
	h := r.Histogram("lat", nil)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(3e-5) }); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.ObserveN(3e-5, 8) }); allocs != 0 {
		t.Errorf("Histogram.ObserveN allocates %v/op", allocs)
	}
}

// TestHistogramObserveN: ObserveN(v, k) leaves the buckets and count that
// k Observe(v) calls leave, and a sum within float rounding of theirs, in
// every bucket including the open one; an n below one records nothing.
func TestHistogramObserveN(t *testing.T) {
	bounds := []float64{1e-6, 1e-5, 1e-4}
	one, batched := NewHistogram(bounds), NewHistogram(bounds)
	for _, tc := range []struct {
		v float64
		k int
	}{{5e-7, 1}, {3.3e-6, 7}, {1e-5, 3}, {2.7e-5, 11}, {0.5, 5}, {3.3e-6, 0}, {3.3e-6, -2}} {
		for i := 0; i < tc.k; i++ {
			one.Observe(tc.v)
		}
		batched.ObserveN(tc.v, tc.k)
	}
	_, want := one.Buckets()
	if _, got := batched.Buckets(); !slices.Equal(got, want) {
		t.Fatalf("ObserveN buckets %v, Observe's %v", got, want)
	}
	if batched.Count() != one.Count() || one.Count() != 27 {
		t.Fatalf("ObserveN count %d, Observe's %d, want 27", batched.Count(), one.Count())
	}
	if got, want := batched.Sum(), one.Sum(); math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("ObserveN sum %v, Observe's %v", got, want)
	}
}

func BenchmarkRegistryInc(b *testing.B) {
	c := NewRegistry().Counter("hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRegistryHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("lat", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

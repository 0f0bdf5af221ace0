// Instrument registry: lightweight, concurrent runtime metrics for the
// live engine. The registry's instruments are preallocated atomics:
// callers look an instrument up once at wiring time and increment a
// pointer on the hot path — zero allocations, zero locks, matching the
// allocation discipline of the matcher and propagation fast paths they
// observe.
//
// Three instrument kinds cover the engine's needs:
//
//   - Counter: monotonically increasing atomic int64.
//   - Gauge: arbitrarily settable atomic int64 (queue depths, sub counts).
//   - Histogram: fixed upper-bound buckets with atomic counts plus a
//     CAS-maintained float64 sum; quantiles (P50/P95/P99) are estimated by
//     linear interpolation inside the owning bucket.
//
// Labeled families ("broker_matches" × broker id) are plain name
// composition: With joins the family name and label values into one flat
// registry name at wiring time, so a snapshot is always a sorted flat
// map from fully qualified name to value.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; instruments obtained from a Registry are shared by name.
type Counter struct {
	v  atomic.Int64
	fn func() int64 // set by CounterFunc: Value reads fn instead of v
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by d (which must be non-negative; counters are
// monotonic).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("metrics: negative delta on monotonic Counter")
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (a level, not a rate).
type Gauge struct {
	v  atomic.Int64
	fn func() int64 // set by GaugeFunc: Value reads fn instead of v
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed upper-bound buckets.
// Observe and ObserveN are lock-free and allocation-free: one linear scan
// over the (small, fixed) bound slice, one atomic bucket add, one CAS
// loop folding the value into the float64 sum.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram with the given inclusive upper bounds
// (must be sorted ascending; an implicit +Inf bucket catches the rest).
// Registry.Histogram is the usual constructor; this one serves tests and
// standalone use.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d", i))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of v at the cost of one: one bucket add of
// n, one count add of n, one CAS folding v·n into the sum. An n below one
// records nothing.
func (h *Histogram) ObserveN(v float64, n int) {
	if n < 1 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(int64(n))
	h.count.Add(int64(n))
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank. When the rank lands in
// the open +Inf bucket the estimate clamps to the highest finite bound —
// the histogram cannot resolve the open bucket, and interpolating toward
// +Inf would fabricate a value no observation supports. An empty
// histogram has no quantiles at all and returns NaN (not 0, which would
// be indistinguishable from a real all-zero distribution).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // open bucket: clamp
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns the bucket upper bounds and their current counts (the
// final count is the open +Inf bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// ExpBuckets returns n ascending bounds starting at start and multiplying
// by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans 1µs to ~34s in ×2 steps: wide enough for both
// the sub-20µs matcher path and multi-second propagation periods.
var DefLatencyBuckets = ExpBuckets(1e-6, 2, 25)

// DefSizeBuckets spans 64B to ~2GB in ×4 steps for payload-size
// distributions.
var DefSizeBuckets = ExpBuckets(64, 4, 13)

// Registry is a concurrent instrument namespace. Lookups
// (Counter/Gauge/Histogram) intern by name under a mutex and are meant
// for wiring time; the returned instruments are the hot-path handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Reset zeroes every registered instrument in place. Handles held by
// wired hot paths stay valid — only the values clear — so an operator
// can re-baseline a long-lived process between runs. Cumulative series
// observed by a Sampler step backwards across a reset; the sampler
// clamps the resulting negative delta to zero (see Tick).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers a counter whose value is fn's, read at snapshot
// time: for a monotonic count its owner already keeps elsewhere, so the
// owner's hot path pays no second increment. fn must not call back into
// the registry. It replaces any counter of the same name; Inc and Add on
// it have no visible effect, and Reset leaves it alone.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = &Counter{fn: fn}
}

// GaugeFunc is CounterFunc for a level: it registers a gauge whose value
// is fn's, read at snapshot time, replacing any gauge of the same name.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = &Gauge{fn: fn}
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls reuse the existing instrument and
// ignore bounds; nil bounds default to DefLatencyBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefLatencyBuckets
		}
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Label composes a family name and label values into one flat registry
// name: Label("broker_matches", "3") = "broker_matches{3}". Multiple
// labels join with commas. Call at wiring time, not on the hot path.
func Label(family string, labels ...string) string {
	if len(labels) == 0 {
		return family
	}
	return family + "{" + strings.Join(labels, ",") + "}"
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	r    *Registry
	name string
}

// CounterVec returns a labeled family rooted at name.
func (r *Registry) CounterVec(name string) *CounterVec { return &CounterVec{r: r, name: name} }

// With returns the child counter for the given label values. It allocates
// the composed name; cache the result for hot paths.
func (v *CounterVec) With(labels ...string) *Counter { return v.r.Counter(Label(v.name, labels...)) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	r    *Registry
	name string
}

// GaugeVec returns a labeled family rooted at name.
func (r *Registry) GaugeVec(name string) *GaugeVec { return &GaugeVec{r: r, name: name} }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labels ...string) *Gauge { return v.r.Gauge(Label(v.name, labels...)) }

// HistogramVec is a labeled histogram family with shared bounds.
type HistogramVec struct {
	r      *Registry
	name   string
	bounds []float64
}

// HistogramVec returns a labeled family rooted at name; children share
// bounds (nil = DefLatencyBuckets).
func (r *Registry) HistogramVec(name string, bounds []float64) *HistogramVec {
	return &HistogramVec{r: r, name: name, bounds: bounds}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labels ...string) *Histogram {
	return v.r.Histogram(Label(v.name, labels...), v.bounds)
}

// Sample is one snapshot entry.
type Sample struct {
	Name  string
	Value float64
}

// Snapshot flattens every instrument into sorted (name, value) samples.
// Counters and gauges contribute one sample; histograms contribute
// .count, .sum, .mean, .p50, .p95 and .p99 derived samples.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+6*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{name, float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{name, float64(g.Value())})
	}
	for name, h := range r.hists {
		n := h.Count()
		// Empty histograms report 0 for the derived points: Quantile's NaN
		// is the honest per-instrument answer, but NaN would poison the JSON
		// rendering of an otherwise healthy snapshot.
		mean, p50, p95, p99 := 0.0, 0.0, 0.0, 0.0
		if n > 0 {
			mean = h.Sum() / float64(n)
			p50, p95, p99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		}
		out = append(out,
			Sample{name + ".count", float64(n)},
			Sample{name + ".sum", h.Sum()},
			Sample{name + ".mean", mean},
			Sample{name + ".p50", p50},
			Sample{name + ".p95", p95},
			Sample{name + ".p99", p99},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Map returns the snapshot as a flat name → value map.
func (r *Registry) Map() map[string]float64 {
	snap := r.Snapshot()
	out := make(map[string]float64, len(snap))
	for _, s := range snap {
		out[s.Name] = s.Value
	}
	return out
}

// WriteText renders the snapshot as sorted "name value" lines (the
// /metrics text format).
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, formatMetricValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as a flat JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Map())
}

// formatMetricValue prints counters as integers and everything else with
// enough precision to be useful.
func formatMetricValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

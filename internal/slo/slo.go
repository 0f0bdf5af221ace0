// Package slo is the declarative SLO/error-budget engine: it turns the
// sampler's retained metrics history into verdicts. A Spec names a
// service-level indicator (how to compute one number per sampler tick
// from the history), a target (an inequality the indicator must
// satisfy), and an error budget (what fraction of ticks may violate the
// target before the objective is burning). Evaluation is multi-window:
// a fast window catches fresh burn, a slow window confirms it is
// sustained, and the combination maps to an evidence-carrying verdict:
//
//	BREACH  both windows burning   — the budget is being spent faster
//	                                  than allowed, and it is sustained
//	WARN    one window burning     — fresh burn not yet sustained, or
//	                                  sustained burn that has stopped
//	OK      neither window burning
//
// Windows are measured in sampler ticks; a scenario or daemon that
// ticks once per propagation period therefore expresses its windows in
// propagation periods, which is the unit the paper's algorithms reason
// in. The engine is pure: Evaluate reads a History snapshot and returns
// a Report, with no internal state — state (transition journaling,
// gauge mirroring) lives in Monitor.
//
// Four indicator kinds cover the engine's objectives:
//
//   - max: the per-tick maximum of gauge-like series (staleness).
//   - sum: the per-tick sum of cumulative-series deltas (loss counts).
//   - ratio: Σdeltas(num) / Σdeltas(den) per tick (precision,
//     bytes/period); ticks where the denominator is zero carry no data.
//   - quantile: a per-tick quantile interpolated from histogram bucket
//     deltas (windowed p99 latency — the cumulative .p99 series never
//     recovers after a spike, bucket deltas do). Requires the sampler
//     to retain the family's buckets (Sampler.RetainBuckets).
package slo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/subsum/subsum/internal/metrics"
)

// State is an objective's verdict state.
type State string

// Verdict states, ordered by severity.
const (
	StateOK     State = "ok"
	StateWarn   State = "warn"
	StateBreach State = "breach"
)

// Severity orders states: ok < warn < breach.
func (s State) Severity() int {
	switch s {
	case StateBreach:
		return 2
	case StateWarn:
		return 1
	default:
		return 0
	}
}

// Kind selects how a Spec computes its per-tick indicator.
type Kind string

// Indicator kinds.
const (
	KindMax      Kind = "max"
	KindSum      Kind = "sum"
	KindRatio    Kind = "ratio"
	KindQuantile Kind = "quantile"
)

// Op is the inequality the indicator must satisfy against Target.
type Op string

// Target operators.
const (
	OpLE Op = "<=" // indicator must stay at or below Target
	OpGE Op = ">=" // indicator must stay at or above Target
)

// Spec is one declarative objective.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Kind        Kind   `json:"kind"`
	// Series selects the history series the indicator reads (max, sum,
	// quantile): each entry matches an exact series name or a labeled
	// family ("broker_deliveries" matches "broker_deliveries{3}").
	// Quantile specs name the histogram family; its ".bucket<i>" series
	// are resolved automatically.
	Series []string `json:"series,omitempty"`
	// Num and Den select the ratio numerator/denominator families; the
	// per-tick indicator is Σdeltas(Num) / Σdeltas(Den).
	Num []string `json:"num,omitempty"`
	Den []string `json:"den,omitempty"`
	// Quantile is the rank for KindQuantile (e.g. 0.99); Buckets are the
	// histogram's upper bounds, needed to interpolate a value from
	// bucket-count deltas.
	Quantile float64   `json:"quantile,omitempty"`
	Buckets  []float64 `json:"-"`

	Op     Op      `json:"op"`
	Target float64 `json:"target"`
	// Budget is the allowed fraction of data ticks per window that may
	// violate the target (the error budget). Burn rate is the observed
	// violating fraction divided by Budget: ≥ 1 means the budget is
	// being spent at or above the allowed pace.
	Budget float64 `json:"budget"`
	// FastWindow and SlowWindow are window lengths in sampler ticks.
	FastWindow int `json:"fast_window"`
	SlowWindow int `json:"slow_window"`
}

// Evidence carries the observations a verdict rests on.
type Evidence struct {
	// WindowTicks is the evaluated slow-window length (clamped to the
	// available history); DataTicks how many of them carried data.
	WindowTicks int `json:"window_ticks"`
	DataTicks   int `json:"data_ticks"`
	// FastViolations / SlowViolations count target-violating ticks in
	// each window.
	FastViolations int `json:"fast_violations"`
	SlowViolations int `json:"slow_violations"`
	// WorstValue is the most target-adverse indicator value in the slow
	// window, with its timestamp and — for max-kind specs — the series
	// that produced it.
	WorstValue      float64 `json:"worst_value"`
	WorstUnixMillis int64   `json:"worst_unix_millis,omitempty"`
	WorstSeries     string  `json:"worst_series,omitempty"`
}

// Verdict is one objective's evaluated state.
type Verdict struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	State       State   `json:"state"`
	Op          Op      `json:"op"`
	Target      float64 `json:"target"`
	// SLI is the most recent data tick's indicator value (NaN-free: 0
	// when the window carried no data at all).
	SLI float64 `json:"sli"`
	// FastBurn and SlowBurn are the per-window burn rates (violating
	// fraction over budget; ≥ 1 is burning).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BudgetRemaining is the unspent fraction of the slow window's error
	// budget, clamped to [0, 1].
	BudgetRemaining float64  `json:"budget_remaining"`
	Evidence        Evidence `json:"evidence"`
}

// Report is one full evaluation pass.
type Report struct {
	UnixMillis int64     `json:"unix_millis"`
	Ticks      int64     `json:"ticks"`
	Verdicts   []Verdict `json:"verdicts"`
	Breaches   int       `json:"breaches"`
	Warns      int       `json:"warns"`
}

// Worst returns the most severe state in the report (OK when empty). A
// test hook: the slo and scenario tests read a run's verdict with it.
func (r *Report) Worst() State {
	worst := StateOK
	for i := range r.Verdicts {
		if r.Verdicts[i].State.Severity() > worst.Severity() {
			worst = r.Verdicts[i].State
		}
	}
	return worst
}

// Breached lists the names of objectives currently in breach.
func (r *Report) Breached() []string {
	var out []string
	for i := range r.Verdicts {
		if r.Verdicts[i].State == StateBreach {
			out = append(out, r.Verdicts[i].Name)
		}
	}
	return out
}

// Engine evaluates a fixed set of specs. It is stateless and safe for
// concurrent use.
type Engine struct {
	specs []Spec
}

// New validates the specs and builds an engine.
func New(specs ...Spec) (*Engine, error) {
	for i := range specs {
		if err := validate(&specs[i]); err != nil {
			return nil, err
		}
	}
	return &Engine{specs: append([]Spec(nil), specs...)}, nil
}

func validate(s *Spec) error {
	if s.Name == "" {
		return fmt.Errorf("slo: spec without a name")
	}
	if s.Budget <= 0 || s.Budget > 1 {
		return fmt.Errorf("slo: %s: budget %v outside (0, 1]", s.Name, s.Budget)
	}
	if s.FastWindow < 1 || s.SlowWindow < s.FastWindow {
		return fmt.Errorf("slo: %s: want 1 ≤ fast (%d) ≤ slow (%d)", s.Name, s.FastWindow, s.SlowWindow)
	}
	if s.Op != OpLE && s.Op != OpGE {
		return fmt.Errorf("slo: %s: unknown op %q", s.Name, s.Op)
	}
	switch s.Kind {
	case KindMax, KindSum:
		if len(s.Series) == 0 {
			return fmt.Errorf("slo: %s: %s spec without series", s.Name, s.Kind)
		}
	case KindRatio:
		if len(s.Num) == 0 || len(s.Den) == 0 {
			return fmt.Errorf("slo: %s: ratio spec without num/den", s.Name)
		}
	case KindQuantile:
		if len(s.Series) == 0 || s.Quantile <= 0 || s.Quantile > 1 || len(s.Buckets) == 0 {
			return fmt.Errorf("slo: %s: quantile spec wants series, 0 < q ≤ 1, and bucket bounds", s.Name)
		}
	default:
		return fmt.Errorf("slo: %s: unknown kind %q", s.Name, s.Kind)
	}
	return nil
}

// Specs returns the engine's objectives.
func (e *Engine) Specs() []Spec { return append([]Spec(nil), e.specs...) }

// Evaluate runs every spec against the history snapshot.
func (e *Engine) Evaluate(h *metrics.History) *Report {
	rep := &Report{UnixMillis: time.Now().UnixMilli(), Verdicts: make([]Verdict, 0, len(e.specs))}
	if h != nil {
		rep.Ticks = h.Ticks
	}
	for i := range e.specs {
		v := evalSpec(&e.specs[i], h)
		switch v.State {
		case StateBreach:
			rep.Breaches++
		case StateWarn:
			rep.Warns++
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep
}

// tickValue is one aligned per-tick indicator sample.
type tickValue struct {
	value      float64
	hasData    bool
	unixMillis int64
	series     string // max kind: which series produced the value
}

// seriesMatches reports whether a history series name belongs to one of
// the spec's selectors (exact name or labeled family).
func seriesMatches(name string, selectors []string) bool {
	for _, sel := range selectors {
		if name == sel {
			return true
		}
		if len(name) > len(sel) && strings.HasPrefix(name, sel) && name[len(sel)] == '{' {
			return true
		}
	}
	return false
}

// tailPoint returns the series point at offset o from its end (o = 0 is
// the latest point). Series created mid-run are shorter; ticks they
// were absent for report ok = false. All live series are sampled on
// every tick, so tails align across series.
func tailPoint(s *metrics.HistorySeries, o int) (metrics.HistoryPoint, bool) {
	if o >= len(s.Points) {
		return metrics.HistoryPoint{}, false
	}
	return s.Points[len(s.Points)-1-o], true
}

// evalSpec computes the per-tick indicator column for the slow window
// and folds it into a verdict.
func evalSpec(s *Spec, h *metrics.History) Verdict {
	v := Verdict{Name: s.Name, Description: s.Description, Op: s.Op, Target: s.Target, State: StateOK}
	col := indicatorColumn(s, h) // index 0 = latest tick
	v.Evidence.WindowTicks = len(col)

	worstSet := false
	fastViol, slowViol, dataFast, dataSlow := 0, 0, 0, 0
	for o, tv := range col {
		if !tv.hasData {
			continue
		}
		if !worstSet || worse(s.Op, tv.value, v.Evidence.WorstValue) {
			v.Evidence.WorstValue = tv.value
			v.Evidence.WorstUnixMillis = tv.unixMillis
			v.Evidence.WorstSeries = tv.series
			worstSet = true
		}
		if dataSlow == 0 {
			// First (most recent) data tick: the reported SLI.
			v.SLI = tv.value
		}
		dataSlow++
		viol := violates(s.Op, tv.value, s.Target)
		if viol {
			slowViol++
		}
		if o < s.FastWindow {
			dataFast++
			if viol {
				fastViol++
			}
		}
	}
	v.Evidence.DataTicks = dataSlow
	v.Evidence.FastViolations = fastViol
	v.Evidence.SlowViolations = slowViol

	v.FastBurn = burn(fastViol, dataFast, s.Budget)
	v.SlowBurn = burn(slowViol, dataSlow, s.Budget)
	v.BudgetRemaining = 1.0
	if dataSlow > 0 {
		v.BudgetRemaining = math.Max(0, 1-(float64(slowViol)/float64(dataSlow))/s.Budget)
	}
	switch {
	case v.FastBurn >= 1 && v.SlowBurn >= 1:
		v.State = StateBreach
	case v.FastBurn >= 1 || v.SlowBurn >= 1:
		v.State = StateWarn
	}
	return v
}

func violates(op Op, value, target float64) bool {
	if op == OpGE {
		return value < target
	}
	return value > target
}

// worse reports whether a is more target-adverse than b.
func worse(op Op, a, b float64) bool {
	if op == OpGE {
		return a < b
	}
	return a > b
}

func burn(viol, data int, budget float64) float64 {
	if data == 0 {
		return 0
	}
	return (float64(viol) / float64(data)) / budget
}

// indicatorColumn computes the spec's per-tick values for the last
// SlowWindow ticks, index 0 = most recent.
func indicatorColumn(s *Spec, h *metrics.History) []tickValue {
	if h == nil {
		return nil
	}
	switch s.Kind {
	case KindQuantile:
		return quantileColumn(s, h)
	case KindRatio:
		return ratioColumn(s, h)
	default:
		return aggColumn(s, h)
	}
}

// selectSeries returns pointers into h for the matching series and the
// longest matching series length.
func selectSeries(h *metrics.History, selectors []string) ([]*metrics.HistorySeries, int) {
	var out []*metrics.HistorySeries
	longest := 0
	for i := range h.Series {
		if seriesMatches(h.Series[i].Name, selectors) {
			out = append(out, &h.Series[i])
			if n := len(h.Series[i].Points); n > longest {
				longest = n
			}
		}
	}
	return out, longest
}

// aggColumn handles max (point values) and sum (cumulative deltas).
func aggColumn(s *Spec, h *metrics.History) []tickValue {
	series, longest := selectSeries(h, s.Series)
	n := min(s.SlowWindow, longest)
	col := make([]tickValue, n)
	for o := 0; o < n; o++ {
		tv := &col[o]
		for _, sr := range series {
			p, ok := tailPoint(sr, o)
			if !ok {
				continue
			}
			tv.unixMillis = p.UnixMillis
			switch s.Kind {
			case KindMax:
				if !tv.hasData || p.Value > tv.value {
					tv.value = p.Value
					tv.series = sr.Name
				}
				tv.hasData = true
			case KindSum:
				tv.value += p.Delta
				tv.hasData = true
			}
		}
	}
	return col
}

// ratioColumn computes Σdeltas(num)/Σdeltas(den) per tick; zero-
// denominator ticks carry no data.
func ratioColumn(s *Spec, h *metrics.History) []tickValue {
	numSeries, longestN := selectSeries(h, s.Num)
	denSeries, longestD := selectSeries(h, s.Den)
	n := min(s.SlowWindow, max(longestN, longestD))
	col := make([]tickValue, n)
	for o := 0; o < n; o++ {
		var num, den float64
		var ts int64
		for _, sr := range numSeries {
			if p, ok := tailPoint(sr, o); ok {
				num += p.Delta
				ts = p.UnixMillis
			}
		}
		for _, sr := range denSeries {
			if p, ok := tailPoint(sr, o); ok {
				den += p.Delta
				ts = p.UnixMillis
			}
		}
		if den > 0 {
			col[o] = tickValue{value: num / den, hasData: true, unixMillis: ts}
		}
	}
	return col
}

// quantileColumn interpolates the spec quantile from per-tick histogram
// bucket-count deltas, summed across every matching instrument. Ticks
// with no observations carry no data.
func quantileColumn(s *Spec, h *metrics.History) []tickValue {
	// Bucket series are named "<instrument>.bucket<i>"; group matching
	// series by bucket index. len(Buckets) finite bounds plus the open
	// +Inf bucket.
	nb := len(s.Buckets) + 1
	byBucket := make([][]*metrics.HistorySeries, nb)
	longest := 0
	for i := range h.Series {
		name := h.Series[i].Name
		dot := strings.LastIndex(name, ".bucket")
		if dot < 0 {
			continue
		}
		idx, err := strconv.Atoi(name[dot+len(".bucket"):])
		if err != nil || idx < 0 || idx >= nb {
			continue
		}
		if !seriesMatches(name[:dot], s.Series) {
			continue
		}
		byBucket[idx] = append(byBucket[idx], &h.Series[i])
		if n := len(h.Series[i].Points); n > longest {
			longest = n
		}
	}
	n := min(s.SlowWindow, longest)
	col := make([]tickValue, n)
	counts := make([]float64, nb)
	for o := 0; o < n; o++ {
		total := 0.0
		var ts int64
		for i := 0; i < nb; i++ {
			counts[i] = 0
			for _, sr := range byBucket[i] {
				if p, ok := tailPoint(sr, o); ok {
					counts[i] += p.Delta
					ts = p.UnixMillis
				}
			}
			total += counts[i]
		}
		if total <= 0 {
			continue
		}
		col[o] = tickValue{value: bucketQuantile(s.Buckets, counts, total, s.Quantile), hasData: true, unixMillis: ts}
	}
	return col
}

// bucketQuantile mirrors metrics.Histogram.Quantile: linear
// interpolation inside the owning bucket, clamped to the highest finite
// bound when the rank lands in the open bucket.
func bucketQuantile(bounds []float64, counts []float64, total, q float64) float64 {
	rank := q * total
	var cum float64
	for i := range counts {
		n := counts[i]
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

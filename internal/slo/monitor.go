package slo

import (
	"fmt"
	"sync"
	"time"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
)

// LatencyFamily is the histogram family the default latency objective
// reads. A process wiring DefaultSpecs must opt the family into bucket
// retention (Sampler.RetainBuckets(LatencyFamily)) before sampling
// starts, or the quantile indicator has no bucket series to read.
const LatencyFamily = "event_e2e_latency_seconds"

// Targets parameterize DefaultSpecs. Zero values take the defaults
// noted per field.
type Targets struct {
	// LatencyP99Seconds caps the windowed publish→deliver p99 (default
	// 0.05 s — generous, because latency is the one wall-clock SLI).
	LatencyP99Seconds float64
	// StalenessPeriods caps per-broker convergence staleness (default 4;
	// set to the engine's FullSyncEvery — the paper's own bound on how
	// long a broker may lag before a full sync repairs it).
	StalenessPeriods float64
	// PrecisionFloor is the minimum deliveries/(deliveries+false
	// positives) ratio per tick (default 0.5 — summarization trades
	// precision for state, but a summary that lets through more noise
	// than signal has degenerated).
	PrecisionFloor float64
	// BytesPerPeriodCeiling caps Δpropagation_bytes/Δpropagation_periods
	// (default 64 KiB — above routine full-sync spikes on the benchmark
	// topology, below a churn storm's sustained load).
	BytesPerPeriodCeiling float64
	// FastWindow and SlowWindow are the shared window lengths in sampler
	// ticks (defaults 4 and 16).
	FastWindow int
	SlowWindow int
}

// DefaultTargets returns the stock targets.
func DefaultTargets() Targets {
	return Targets{
		LatencyP99Seconds:     0.05,
		StalenessPeriods:      4,
		PrecisionFloor:        0.5,
		BytesPerPeriodCeiling: 64 * 1024,
		FastWindow:            4,
		SlowWindow:            16,
	}
}

func (t *Targets) fill() {
	d := DefaultTargets()
	if t.LatencyP99Seconds <= 0 {
		t.LatencyP99Seconds = d.LatencyP99Seconds
	}
	if t.StalenessPeriods <= 0 {
		t.StalenessPeriods = d.StalenessPeriods
	}
	if t.PrecisionFloor <= 0 {
		t.PrecisionFloor = d.PrecisionFloor
	}
	if t.BytesPerPeriodCeiling <= 0 {
		t.BytesPerPeriodCeiling = d.BytesPerPeriodCeiling
	}
	if t.FastWindow <= 0 {
		t.FastWindow = d.FastWindow
	}
	if t.SlowWindow <= 0 {
		t.SlowWindow = d.SlowWindow
	}
}

// DefaultSpecs builds the engine's five stock objectives over the
// instrument families the core and netsim register.
func DefaultSpecs(tg Targets) []Spec {
	tg.fill()
	return []Spec{
		{
			Name:        "publish_deliver_p99",
			Description: fmt.Sprintf("windowed publish→deliver p99 ≤ %.0f ms", tg.LatencyP99Seconds*1000),
			Kind:        KindQuantile,
			Series:      []string{LatencyFamily},
			Quantile:    0.99,
			Buckets:     metrics.DefLatencyBuckets,
			Op:          OpLE,
			Target:      tg.LatencyP99Seconds,
			Budget:      0.2,
			FastWindow:  tg.FastWindow,
			SlowWindow:  tg.SlowWindow,
		},
		{
			Name:        "convergence_staleness",
			Description: fmt.Sprintf("max broker staleness ≤ %.0f propagation periods", tg.StalenessPeriods),
			Kind:        KindMax,
			Series:      []string{"convergence_staleness_periods"},
			Op:          OpLE,
			Target:      tg.StalenessPeriods,
			Budget:      0.05,
			FastWindow:  tg.FastWindow,
			SlowWindow:  tg.SlowWindow,
		},
		{
			Name:        "delivery_precision",
			Description: fmt.Sprintf("deliveries/(deliveries+false positives) ≥ %.2f", tg.PrecisionFloor),
			Kind:        KindRatio,
			Num:         []string{"broker_deliveries"},
			Den:         []string{"broker_deliveries", "broker_false_positives"},
			Op:          OpGE,
			Target:      tg.PrecisionFloor,
			Budget:      0.25,
			FastWindow:  tg.FastWindow,
			SlowWindow:  tg.SlowWindow,
		},
		{
			Name:        "delivery_loss",
			Description: "no event or delivery traffic dropped or corrupted",
			Kind:        KindSum,
			Series: []string{
				"bus_dropped{event}", "bus_dropped{deliver}",
				"bus_decode_errors{event}", "bus_decode_errors{deliver}",
			},
			Op:         OpLE,
			Target:     0,
			Budget:     0.05,
			FastWindow: tg.FastWindow,
			SlowWindow: tg.SlowWindow,
		},
		{
			Name:        "bytes_per_period",
			Description: fmt.Sprintf("propagation bytes per period ≤ %.0f", tg.BytesPerPeriodCeiling),
			Kind:        KindRatio,
			Num:         []string{"propagation_bytes"},
			Den:         []string{"propagation_periods"},
			Op:          OpLE,
			Target:      tg.BytesPerPeriodCeiling,
			Budget:      0.2,
			FastWindow:  tg.FastWindow,
			SlowWindow:  tg.SlowWindow,
		},
	}
}

// Monitor drives an engine over a sampler's history, mirrors each
// verdict's state into the slo_state gauge, journals breach/recover transitions into
// the flight recorder, and retains the latest report for the wire and
// debug surfaces. Drive it with Start/Stop (background goroutine) or
// EvalOnce (manual — scenarios evaluate in lockstep with their ticks).
type Monitor struct {
	eng     *Engine
	sampler *metrics.Sampler
	rec     *flight.Recorder // optional

	state []*metrics.Gauge // per spec: its State.Severity (0/1/2)

	mu   sync.Mutex
	last *Report
	prev []State

	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	stopped   chan struct{}
}

// NewMonitor wires a monitor. reg receives the slo_state gauge mirror (nil
// to skip mirroring); rec receives breach/recover records (nil to skip
// journaling).
func NewMonitor(eng *Engine, sampler *metrics.Sampler, reg *metrics.Registry, rec *flight.Recorder) *Monitor {
	m := &Monitor{
		eng:     eng,
		sampler: sampler,
		rec:     rec,
		prev:    make([]State, len(eng.specs)),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for i := range m.prev {
		m.prev[i] = StateOK
	}
	if reg != nil {
		st := reg.GaugeVec("slo_state")
		for _, spec := range eng.specs {
			m.state = append(m.state, st.With(spec.Name))
		}
	}
	return m
}

// milli converts a burn/budget fraction to an integer journal argument,
// clamped so a runaway burn cannot overflow the display.
func milli(v float64) int64 {
	const ceiling = 1_000_000
	if v < 0 {
		return 0
	}
	if v > ceiling/1000 {
		return ceiling
	}
	return int64(v * 1000)
}

// EvalOnce evaluates every objective against the sampler's current
// history, updates the state gauges, journals state transitions, and
// returns the report.
func (m *Monitor) EvalOnce() *Report {
	rep := m.eng.Evaluate(m.sampler.History())

	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range rep.Verdicts {
		v := &rep.Verdicts[i]
		if m.state != nil {
			m.state[i].Set(int64(v.State.Severity()))
		}
		was, now := m.prev[i], v.State
		if now == StateBreach && was != StateBreach {
			m.rec.Record(flight.EvSLOBreach, -1,
				milli(v.FastBurn), milli(v.SlowBurn), milli(v.BudgetRemaining), v.Name)
		}
		if was == StateBreach && now != StateBreach {
			m.rec.Record(flight.EvSLORecover, -1,
				milli(v.FastBurn), milli(v.SlowBurn), milli(v.BudgetRemaining), v.Name)
		}
		m.prev[i] = now
	}
	m.last = rep
	return rep
}

// Last returns the most recent report (nil before the first EvalOnce).
func (m *Monitor) Last() *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// Start launches periodic evaluation every interval. Idempotent.
func (m *Monitor) Start(every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	m.startOnce.Do(func() {
		go func() {
			defer close(m.stopped)
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			for {
				select {
				case <-m.done:
					return
				case <-ticker.C:
					m.EvalOnce()
				}
			}
		}()
	})
}

// Stop halts periodic evaluation and waits for the goroutine to exit.
// Idempotent; safe without Start.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.done) })
	m.startOnce.Do(func() { close(m.stopped) })
	<-m.stopped
}

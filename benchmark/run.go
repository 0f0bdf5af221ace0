package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/subsum/subsum/internal/core"
)

// runOpts selects one run: a workload, a seed, how long to measure, and
// whether spans are recorded.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // with trace: write the spans and self-time table here
	size     sizing // tests only

	// afterSetup, when set, is handed the network once set-up is done; the
	// negative-control test injects message loss here.
	afterSetup func(*core.Network)
}

// report is one run's result.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each timing metric.
	Samples map[string]int `json:"samples"`
}

func (r *report) correct() bool { return r.Failed == 0 }

func (r *report) failedRatio() float64 { return float64(r.Failed) / float64(r.Attempted) }

// Set-up is repeated (the median is reported) at least minSetups times and
// until setupShare of -seconds has gone into it, at most maxSetups times.
const (
	minSetups  = 3
	maxSetups  = 15
	setupShare = 0.12
)

func run(o runOpts) (*report, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	in, err := generate(sp, o.seed, o.size)
	if err != nil {
		return nil, err
	}
	oracleStart := time.Now()
	in.oracle = buildOracle(in.subs, in.pool)
	oracleTime := time.Since(oracleStart)

	r := &runner{in: in}
	if o.trace {
		r.tr = &tracer{}
	}
	r.chk = newChecker(in, r.tr)

	// Set-up, several times over; the last one is kept and measured on.
	var e *engine
	var totals, heaps []float64
	var stages []stageTimes
	setupStart := time.Now()
	for {
		before := heapAfterGC()
		s := r.span("setup", "harness", -1, -1)
		e, err = r.setup()
		r.endSpan(s)
		if err != nil {
			return nil, err
		}
		heaps = append(heaps, (float64(heapAfterGC())-float64(before))/(1<<20))
		totals = append(totals, e.stages.total.Seconds())
		stages = append(stages, e.stages)
		n := len(totals)
		if n >= maxSetups || n >= minSetups && time.Since(setupStart).Seconds() > setupShare*o.seconds {
			break
		}
		e.close()
	}
	defer e.close()
	if o.afterSetup != nil {
		o.afterSetup(e.net)
	}

	m, overhead, err := r.phases(e, o.seconds)
	if err != nil {
		return nil, err
	}
	e.net.Flush()
	r.chk.settle(snapshot(e.net).busErrors)

	rep := &report{
		Workload: sp.name, Seed: o.seed, Traced: o.trace,
		Attempted: r.chk.attempted, Failed: r.chk.failed,
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
	if len(r.chk.deliverLat) == 0 {
		return nil, errors.New("no deliveries reached the harness; nothing to time")
	}
	out := rep.Metrics
	out["setup_s"] = median(totals)
	out["heap_after_setup_mb"] = median(heaps)
	out["events_per_s"] = median(m.rates)
	out["publish_done_p50_us"], out["publish_done_p99_us"] = latencyPercentiles(m.pubDone)
	out["deliver_p50_us"], out["deliver_p99_us"] = latencyPercentiles(r.chk.deliverLat)
	out["hops_per_event"] = (m.c1.forwarded - m.c0.forwarded + m.c1.deliverSends - m.c0.deliverSends) / m.events
	out["wire_bytes_per_event"] = (m.c1.bytes - m.c0.bytes) / m.events
	if sp.churn {
		out["propagation_bytes_per_period"] = (m.c1.propBytes - m.c0.propBytes) / (m.c1.propPeriods - m.c0.propPeriods)
	} else {
		out["propagation_bytes_per_period"] = m.c0.propBytes / m.c0.propPeriods
	}
	out["cpu_us_per_event"] = median(m.cpuUs)
	rep.Samples["setup_s"] = len(totals)
	rep.Samples["events_per_s"], rep.Samples["cpu_us_per_event"] = len(m.rates), len(m.cpuUs)
	rep.Samples["publish_done_p50_us"], rep.Samples["publish_done_p99_us"] = len(m.pubDone), len(m.pubDone)
	rep.Samples["deliver_p50_us"], rep.Samples["deliver_p99_us"] = len(r.chk.deliverLat), len(r.chk.deliverLat)

	if o.trace {
		r.chk.mode.Store(modeOff)
		out["trace.overhead_share"] = overhead
		out["harness.oracle_s"] = oracleTime.Seconds()
		stage := func(f func(stageTimes) time.Duration) float64 {
			xs := make([]float64, len(stages))
			for i, s := range stages {
				xs[i] = float64(f(s).Nanoseconds()) / 1e6
			}
			return median(xs)
		}
		out["topology.generate_ms"] = stage(func(s stageTimes) time.Duration { return s.topology })
		out["core.new_ms"] = stage(func(s stageTimes) time.Duration { return s.coreNew })
		out["core.subscribe_load_ms"] = stage(func(s stageTimes) time.Duration { return s.subscribe })
		out["core.first_propagate_ms"] = stage(func(s stageTimes) time.Duration { return s.propagate })
		if err := r.layers(e, m, out); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := r.tr.write(o.traceOut); err != nil {
				return nil, err
			}
		}
	}
	for name, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return rep, nil
}

// phases runs the workload's end-to-end phases for `seconds`. In a traced
// run it also returns the tracing overhead: the share of events_per_s lost
// between the same phase with spans off and with spans on.
func (r *runner) phases(e *engine, seconds float64) (*measured, float64, error) {
	sp := r.in.sp
	if !sp.tcp && !sp.churn {
		m, err := r.staticPhases(e, seconds)
		if err != nil {
			return nil, 0, err
		}
		return m, 1 - m.tracedRate/median(m.rates), nil
	}
	sync := func(seconds float64) (*measured, error) {
		if sp.churn {
			return r.churnPhase(e, seconds)
		}
		return r.syncPhase(e, seconds, true, nil), nil
	}
	if r.tr == nil {
		m, err := sync(seconds)
		return m, 0, err
	}
	// Traced run of a one-phase workload: half the time with spans off,
	// half with spans on; the per-layer numbers come from the second half.
	resume := r.pauseTracing()
	off, err := sync(seconds / 2)
	resume()
	if err != nil {
		return nil, 0, err
	}
	on, err := sync(seconds / 2)
	if err != nil {
		return nil, 0, err
	}
	return on, 1 - median(on.rates)/median(off.rates), nil
}

// hostHeader describes where the numbers were taken; every mode prints it
// and -compare refuses sets whose hosts differ.
type hostHeader struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Link       string `json:"link"` // TCP workloads cross the loopback interface, never a real link
}

func host() hostHeader {
	return hostHeader{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Link: "loopback",
	}
}

// checkHost refuses a host that cannot run the workload's load model: more
// Ps than CPUs, or more load-generating goroutines/connections than CPUs,
// would let a mis-sized host silently become the baseline.
func checkHost(sp spec) error {
	h := host()
	if h.GOMAXPROCS > h.NumCPU {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d; refusing to emit numbers", h.GOMAXPROCS, h.NumCPU)
	}
	if sp.generators > h.NumCPU {
		return fmt.Errorf("workload %s needs %d load generators but nproc=%d; refusing to emit numbers", sp.name, sp.generators, h.NumCPU)
	}
	return nil
}

package main

import (
	"fmt"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/wire"
	"github.com/subsum/subsum/internal/workload"
)

// Load model: a closed loop, because callers of this system wait for a
// reply ({"op":"publish"} blocks on Network.Flush before answering).
//
//	latency phase     1 client, 1 event in flight: Publish; Flush
//	saturation phase  1 publisher keeping a window of satWindow events in
//	                  flight: Publish × satWindow; Flush
//
// Phases run whole passes over the event pool, so per-event counter
// ratios (hops, bytes) do not depend on how many passes the clock allowed.
const (
	satWindow = 512
	satReps   = 5    // timed saturation repetitions; the median rate is reported
	satShare  = 0.35 // share of -seconds spent in the saturation repetitions
	latShare  = 0.60 // share of -seconds spent in the latency phase
)

// engine is one set-up of the program under test: a live network with the
// workload's subscriptions loaded and propagated to its stated state.
type engine struct {
	net    *core.Network
	stages stageTimes

	// TCP workloads only.
	srv      *wire.Server
	addr     string
	pub, sub *wire.Client
	texts    []string // pool events as publish-op text

	// Churn: the stream continues from where set-up's ramp left it.
	churn *workload.Churn
	live  map[int]subid.ID
}

// stageTimes splits setup_s into its stages.
type stageTimes struct {
	topology, coreNew, subscribe, propagate, total time.Duration
}

func (e *engine) close() {
	if e.pub != nil {
		e.pub.Close()
	}
	if e.sub != nil {
		e.sub.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.net != nil {
		e.net.Close()
	}
}

// runner holds one benchmark run's state across set-up and phases.
type runner struct {
	in  *inputs
	chk *checker
	tr  *tracer // nil in the untraced run

	// Rate sampling of the 1-in-flight loop: with markEvery > 0, a mark is
	// taken every markEvery completed events.
	markEvery, completed int
	marks                []rateMark
}

// rateMark is the wall clock and process CPU after `events` events.
type rateMark struct {
	at     time.Time
	cpu    time.Duration
	events int
}

func (r *runner) nodes() int { return r.in.graph.Len() }

// setup builds the program under test from nothing: topology, core.New,
// every subscription, and propagation to the workload's stated state (one
// period; for churn also the ramp). Over TCP it includes listen, dial and
// the subscribe ops. Its wall time is setup_s.
func (r *runner) setup() (*engine, error) {
	sp := r.in.sp
	e := &engine{}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	t0 := time.Now()
	g := sp.topo(r.in.seed)
	gen, err := workload.NewGenerator(r.in.genConfig())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	e.net, err = core.New(core.Config{
		Topology: g, Schema: gen.Schema(), Mode: interval.Lossy, FullSyncEvery: sp.fullSyncEvery,
	})
	if err != nil {
		return nil, err
	}
	if sp.tcp {
		e.srv = wire.NewServer(e.net, gen.Schema())
		if e.addr, err = e.srv.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		if e.sub, err = wire.Dial(e.addr, r.onDelivery); err != nil {
			return nil, err
		}
		if e.pub, err = wire.Dial(e.addr, nil); err != nil {
			return nil, err
		}
		_, err = e.pub.ExtendSchema(seqAttr, "int")
	} else {
		_, err = e.net.ExtendSchema(seqAttr, r.in.schema.TypeOf(r.in.seq))
	}
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	n := g.Len()
	for i, sub := range r.in.subs {
		at, local := i%n, i/n
		if sp.tcp {
			b, l, err := e.sub.Subscribe(at, sub.Format(r.in.schema))
			if err != nil {
				return nil, err
			}
			if b != at || int(l) != local {
				return nil, fmt.Errorf("subscription %d got id (%d,%d), want (%d,%d)", i, b, l, at, local)
			}
			continue
		}
		if _, err := e.net.Subscribe(topology.NodeID(at), sub, r.chk.base(int32(i))); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	if sp.tcp {
		_, err = e.pub.Propagate()
	} else {
		_, err = e.net.Propagate()
	}
	if err != nil {
		return nil, err
	}
	if sp.churn {
		if e.churn, err = r.in.newChurn(); err != nil {
			return nil, err
		}
		e.live = make(map[int]subid.ID)
		for p := 0; p < sp.rampPeriods; p++ {
			if err := r.churnPeriod(e, nil); err != nil {
				return nil, err
			}
		}
	}
	t4 := time.Now()
	e.stages = stageTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t4.Sub(t0)}
	if sp.tcp {
		e.texts = make([]string, len(r.in.pool))
		for k, ev := range r.in.pool {
			e.texts[k] = renderEvent(r.in.schema, ev)
		}
	}
	ok = true
	return e, nil
}

// onDelivery receives the TCP workload's pushed delivery lines. Base
// subscription i was registered i-th, at broker i%n, so its id is
// (i%n, i/n); setup checked that.
func (r *runner) onDelivery(broker int, local uint32, text string) {
	seq, ok := seqOfDelivery(text)
	i := int(local)*r.nodes() + broker
	if !ok || i >= len(r.in.subs) {
		r.chk.spurious.Add(1)
		return
	}
	r.chk.deliver(int32(i), seq)
}

// writerStats is what a run of churn periods cost the writer.
type writerStats struct {
	periods int
	ops     int           // subscribe + unsubscribe calls
	wall    time.Duration // ops and Propagate, not the generation of the churn
}

// churnPeriod applies one period of the churn stream: deaths, births, then
// Propagate. Births land at broker handle%n.
func (r *runner) churnPeriod(e *engine, st *writerStats) error {
	p := e.churn.Period()
	n := r.nodes()
	start := time.Now()
	for _, h := range p.Died {
		id := e.live[h]
		delete(e.live, h)
		s := r.span("core.Unsubscribe", "core", -1, -1)
		err := e.net.Unsubscribe(id)
		r.endSpan(s)
		if err != nil {
			return err
		}
	}
	for _, b := range p.Born {
		s := r.span("core.Subscribe", "core", -1, -1)
		id, err := e.net.Subscribe(topology.NodeID(b.Handle%n), b.Sub, r.chk.churning(b.Sub))
		r.endSpan(s)
		if err != nil {
			return err
		}
		e.live[b.Handle] = id
	}
	s := r.span("core.Propagate", "core", -1, -1)
	_, err := e.net.Propagate()
	r.endSpan(s)
	if st != nil {
		st.periods++
		st.ops += len(p.Died) + len(p.Born)
		st.wall += time.Since(start)
	}
	return err
}

// span opens a span now; without a tracer it costs one branch and no
// clock read.
func (r *runner) span(name, layer string, parent, seq int32) int32 {
	if r.tr == nil {
		return -1
	}
	return r.tr.begin(name, layer, r.chk.now(), parent, seq)
}

func (r *runner) endSpan(id int32) {
	if r.tr != nil {
		r.tr.end(id, r.chk.now())
	}
}

// saturate publishes `count` pool events starting at pool index `from`
// (wrapping), keeping satWindow events in flight, and returns the wall
// time to quiescence. Deliveries are counted per subscription and checked
// at the end of the run, which is why callers publish whole passes over
// the pool in total.
func (r *runner) saturate(e *engine, from, count int) (time.Duration, error) {
	r.chk.mode.Store(modeCount)
	defer r.chk.mode.Store(modeOff)
	start := time.Now()
	for i := 0; i < count; i++ {
		k := (from + i) % len(r.in.pool)
		s := r.span("core.Publish/window", "core", -1, int32(k))
		err := e.net.Publish(r.in.origin[k], r.in.pool[k])
		r.endSpan(s)
		if err != nil {
			return 0, err
		}
		if (i+1)%satWindow == 0 || i == count-1 {
			s := r.span("core.Flush/window", "core", -1, -1)
			e.net.Flush()
			r.endSpan(s)
		}
	}
	r.chk.countEvents += count
	r.chk.attempted += int64(count)
	return time.Since(start), nil
}

// pauseTracing turns span recording off until the returned func is called;
// the traced run uses it to time a phase both ways, which is where
// trace.overhead_share comes from.
func (r *runner) pauseTracing() (resume func()) {
	tr := r.tr
	r.tr = nil
	r.chk.tr.Store(nil)
	return func() {
		r.tr = tr
		r.chk.tr.Store(tr)
	}
}

// saturationReps times satReps repetitions that together publish a whole
// number of passes over the pool, as many as fit `seconds` given that one
// pass takes `pass`. It returns each repetition's rate in events/s and
// process CPU per event in µs, and the number of events published.
func (r *runner) saturationReps(e *engine, seconds float64, pass time.Duration) (rates, cpuUs []float64, events float64, err error) {
	passes := max(1, int(seconds/pass.Seconds()+0.5))
	total := passes * len(r.in.pool)
	for rep := 0; rep < satReps; rep++ {
		from, to := total*rep/satReps, total*(rep+1)/satReps
		cpu0 := cpuTime()
		d, err := r.saturate(e, from, to-from)
		if err != nil {
			return nil, nil, 0, err
		}
		n := float64(to - from)
		cpuUs = append(cpuUs, float64((cpuTime()-cpu0).Nanoseconds())/1e3/n)
		rates = append(rates, n/d.Seconds())
	}
	return rates, cpuUs, float64(total), nil
}

// latencyCycle publishes one pass over the pool with one event in flight,
// checking every event's delivered set against the oracle, and appends
// each event's Publish→done time to pubDone. stop, when non-nil, ends the
// pass early once it reports true.
func (r *runner) latencyCycle(e *engine, pubDone *[]int64, stop func() bool) {
	r.chk.mode.Store(modeLatency)
	defer r.chk.mode.Store(modeOff)
	for k, ev := range r.in.pool {
		if stop != nil && stop() || r.chk.failed >= giveUpAfter {
			return
		}
		root := r.span("event", "harness", -1, int32(k))
		t0 := r.chk.begin(k, root)
		var err error
		if e.pub != nil {
			s := r.span("wire.Client.Publish", "wire", root, int32(k))
			err = e.pub.Publish(int(r.in.origin[k]), e.texts[k])
			r.endSpan(s)
		} else {
			s := r.span("core.Publish", "core", root, int32(k))
			err = e.net.Publish(r.in.origin[k], ev)
			r.endSpan(s)
			s = r.span("core.Flush", "core", root, int32(k))
			e.net.Flush()
			r.endSpan(s)
		}
		done := r.chk.now()
		*pubDone = append(*pubDone, done-t0)
		if e.pub != nil {
			r.chk.await(deliveryWait)
		}
		r.endSpan(root)
		r.chk.finish(k, err)
		if r.markEvery > 0 {
			if r.completed++; r.completed%r.markEvery == 0 {
				r.mark()
			}
		}
	}
}

// counters is a snapshot of what the engine already exports: the metrics
// registry, the bus statistics, nothing added.
type counters struct {
	published, routed, forwarded, deliverSends float64
	propBytes, propPeriods, propHops           float64
	falsePositives                             float64
	matchSeconds                               float64
	matchCount                                 []float64 // per broker
	msgs, bytes                                float64   // event + deliver kinds
	busErrors                                  int64     // dropped + decode + handler errors
	dropped, decodeErrs, handlerErrs           int64
}

func snapshot(net *core.Network) counters {
	m := net.Metrics().Map()
	st := net.Stats()
	c := counters{
		published: m["events_published"], routed: m["events_routed"],
		forwarded: m["events_forwarded"], deliverSends: m["deliver_sends"],
		propBytes: m["propagation_bytes"], propPeriods: m["propagation_periods"],
		propHops:   m["propagation_hops"],
		msgs:       float64(st.Messages[netsim.KindEvent] + st.Messages[netsim.KindDeliver]),
		bytes:      float64(st.Bytes[netsim.KindEvent] + st.Bytes[netsim.KindDeliver]),
		dropped:    st.TotalDropped(),
		matchCount: make([]float64, net.Len()),
	}
	for _, v := range st.DecodeErrors {
		c.decodeErrs += v
	}
	for _, v := range st.HandlerErrors {
		c.handlerErrs += v
	}
	c.busErrors = c.dropped + c.decodeErrs + c.handlerErrs
	for i := range c.matchCount {
		label := "{" + strconv.Itoa(i) + "}"
		c.matchCount[i] = m["broker_match_seconds"+label+".count"]
		c.matchSeconds += m["broker_match_seconds"+label+".sum"]
		c.falsePositives += m["broker_false_positives"+label]
	}
	return c
}

func deadlineIn(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC returns the live heap once a collection has run.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measured is what the end-to-end phases of one run produced.
type measured struct {
	rates   []float64 // events/s of each timed repetition or pool pass
	pubDone []int64   // ns, one per latency-phase event
	events  float64   // events published between c0 and c1
	c0, c1  counters
	cpuUs   []float64        // process CPU per event, µs, one per rate sample
	mem0    runtime.MemStats // heap statistics around memEv events
	mem1    runtime.MemStats
	memEv   float64
	writer  writerStats // churn only
	// tracedRate is the median saturation rate with spans on (traced run
	// of a static in-process workload only; 0 elsewhere).
	tracedRate float64
}

// staticPhases runs a static in-process workload: a warm-up pass, satReps
// timed saturation repetitions, then whole latency passes until latShare
// of `seconds` has gone.
func (r *runner) staticPhases(e *engine, seconds float64) (*measured, error) {
	m := &measured{}
	traced := r.tr != nil
	budget := seconds * satShare
	if traced {
		budget /= 2 // the traced run times the repetitions twice: spans off, spans on
	}
	resume := r.pauseTracing()
	warm, err := r.saturate(e, 0, len(r.in.pool))
	if err != nil {
		return nil, err
	}
	m.c0 = snapshot(e.net)
	runtime.ReadMemStats(&m.mem0)
	if m.rates, m.cpuUs, m.memEv, err = r.saturationReps(e, budget, warm); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m.mem1)
	resume()
	if traced {
		rates, _, _, err := r.saturationReps(e, budget, warm)
		if err != nil {
			return nil, err
		}
		m.tracedRate = median(rates)
	}
	deadline := deadlineIn(seconds * latShare)
	for first := true; first || time.Now().Before(deadline); first = false {
		r.latencyCycle(e, &m.pubDone, nil)
	}
	m.c1 = snapshot(e.net)
	m.events = m.c1.published - m.c0.published
	return m, nil
}

func (r *runner) mark() {
	r.marks = append(r.marks, rateMark{time.Now(), cpuTime(), r.completed})
}

// A pushed delivery line normally trails the publish reply by well under a
// millisecond; an event still short of deliveries after deliveryWait has
// failed. Once giveUpAfter events have failed the run is incorrect whatever
// follows, and the latency loop stops so that a broken engine cannot hold
// the run past the driver's time limit.
const (
	deliveryWait = 250 * time.Millisecond
	giveUpAfter  = 50
)

// rateChunk is how many 1-in-flight events make one rate sample of a
// workload whose only phase is the latency loop; the median over chunks is
// its events_per_s, which a single stall cannot move.
const rateChunk = 250

// syncPhase runs a workload whose only phase is the 1-in-flight loop (TCP:
// the protocol is synchronous, so latency and throughput are one phase;
// churn: the reader beside the writer). warm runs one untimed pass first.
func (r *runner) syncPhase(e *engine, seconds float64, warm bool, stop func() bool) *measured {
	m := &measured{}
	if warm {
		var discard []int64
		r.latencyCycle(e, &discard, stop)
	}
	m.c0 = snapshot(e.net)
	runtime.ReadMemStats(&m.mem0)
	deadline := deadlineIn(seconds)
	r.marks, r.markEvery, r.completed = r.marks[:0], rateChunk, 0
	r.mark()
	for first := true; first || time.Now().Before(deadline); first = false {
		r.latencyCycle(e, &m.pubDone, stop)
		if stop != nil && stop() {
			break
		}
	}
	r.markEvery = 0
	if len(r.marks) < 2 {
		r.mark() // too short a phase for one chunk: rate it whole
	}
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		n := float64(b.events - a.events)
		m.rates = append(m.rates, n/b.at.Sub(a.at).Seconds())
		m.cpuUs = append(m.cpuUs, float64((b.cpu-a.cpu).Nanoseconds())/1e3/n)
	}
	runtime.ReadMemStats(&m.mem1)
	m.c1 = snapshot(e.net)
	m.events = m.c1.published - m.c0.published
	m.memEv = m.events
	return m
}

// churnEvery is the writer's propagation period on churn-mixed-cw24, the
// role of subsumd's -propagate-every ticker. A writer running periods back
// to back was tried first: the reader's rate then depends on where its
// events fall between the writer's bus traffic and spread by a fifth from
// run to run, and a costlier mutation path only lowered the number of
// periods. Paced, the writer's cost per period is time taken from the
// reader, so it shows in the reader's bounded metrics.
const churnEvery = 200 * time.Millisecond

// churnPhase runs the writer (one churn period every churnEvery) beside
// the reader (the 1-in-flight loop) for `seconds`.
func (r *runner) churnPhase(e *engine, seconds float64) (*measured, error) {
	deadline := deadlineIn(seconds)
	var st writerStats
	writerErr := make(chan error, 1)
	go func() {
		next := time.Now()
		for time.Now().Before(deadline) {
			if err := r.churnPeriod(e, &st); err != nil {
				writerErr <- err
				return
			}
			if next = next.Add(churnEvery); time.Until(next) < 0 {
				next = time.Now() // fell behind: carry on from here, no catch-up burst
			}
			time.Sleep(min(time.Until(next), time.Until(deadline)))
		}
		writerErr <- nil
	}()
	m := r.syncPhase(e, seconds, false, func() bool { return !time.Now().Before(deadline) })
	if err := <-writerErr; err != nil {
		return nil, err
	}
	e.net.Flush()
	// The writer's last periods may have ended after the reader's closing
	// snapshot; take the propagation counters again now that both stopped.
	end := snapshot(e.net)
	m.c1.propBytes, m.c1.propPeriods, m.c1.propHops = end.propBytes, end.propPeriods, end.propHops
	m.c1.busErrors = end.busErrors
	m.writer = st
	return m, nil
}

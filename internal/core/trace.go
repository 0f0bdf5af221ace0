package core

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/topology"
)

// Hop-decision labels recorded by event tracing. At every broker an event
// visits, the summary filter produces one (or two) of these: a local
// delivery outcome when the merged summary named this broker as an owner,
// and a routing outcome for the Algorithm 3 walk.
const (
	// DecisionDelivered: the summary matched local subscriptions and the
	// exact re-match confirmed at least one true consumer.
	DecisionDelivered = "delivered"
	// DecisionFalsePositive: the summary matched locally but the exact
	// re-match found no true consumer — the cost of lossy summarization.
	DecisionFalsePositive = "false-positive"
	// DecisionForwarded: the event was sent on to the next unvisited
	// broker (BROCLI incomplete).
	DecisionForwarded = "forwarded"
	// DecisionSuppressed: the walk ended here — every broker's
	// subscriptions were already examined via merged summaries, so no
	// further transmission was needed.
	DecisionSuppressed = "suppressed-by-summary"
)

// TraceHop is one filter decision in an event's walk.
type TraceHop struct {
	Broker   int    `json:"broker"`
	Decision string `json:"decision"`
	// UnixNanos is the wall-clock time the decision was recorded, so trace
	// exports (Chrome trace events, timelines) can place hops on a real
	// time axis.
	UnixNanos int64 `json:"t_ns"`
	// Matched is the number of summary-filter hits at this hop (owner ids
	// the merged summary admitted), recorded on delivery/forward decisions.
	Matched int `json:"matched"`
	// Bytes is the wire size of the message this decision emitted
	// (forward/remote-delivery sends) or consumed (terminal decisions: 0).
	Bytes int `json:"bytes"`
}

// Trace is the complete record of one sampled event's path through the
// broker network.
type Trace struct {
	ID     uint64 `json:"id"`
	Origin int    `json:"origin"`
	Event  string `json:"event"`
	// StartUnixNanos is the wall-clock time Publish accepted the event.
	StartUnixNanos int64 `json:"start_ns"`
	// Path is the Algorithm 3 visit order: the brokers the routed event
	// reached, in sequence (owner-only delivery hops are not part of the
	// routing walk and appear in Hops instead).
	Path []int      `json:"path"`
	Hops []TraceHop `json:"hops"`
	// CumBytes accumulates the wire size of every message that carried
	// this event (routing messages and remote deliveries).
	CumBytes int `json:"cum_bytes"`
}

// defaultTraceCapacity bounds the tracer's memory until SetTraceCapacity
// overrides it; older traces are evicted FIFO.
const defaultTraceCapacity = 256

// tracer samples published events and records their hop-by-hop walk. It
// is always present on a Network; with sampling off (every == 0, the
// default) the publish-path cost is one atomic load and branch, and
// nothing below ever takes the mutex.
type tracer struct {
	every  atomic.Uint64 // sample every Nth publish; 0 = off
	pubs   atomic.Uint64 // publishes seen while sampling is on
	nextID atomic.Uint64

	mu       sync.Mutex
	capacity int // 0 means defaultTraceCapacity
	traces   map[uint64]*Trace
	order    []uint64 // insertion order for FIFO eviction

	// latency[b] observes publish→deliver wall time whenever a traced
	// event's exact re-match delivers at broker b. The timestamp rides the
	// trace context, so the untraced fast path stays one header byte and
	// zero allocations — end-to-end latency is a sampled measurement by
	// construction. Nil when unwired (tests building a bare tracer).
	latency []*metrics.Histogram
}

// initLatency resolves the per-broker end-to-end latency histograms.
func (t *tracer) initLatency(r *metrics.Registry, n int) {
	vec := r.HistogramVec("event_e2e_latency_seconds", metrics.DefLatencyBuckets)
	t.latency = make([]*metrics.Histogram, n)
	for i := range t.latency {
		t.latency[i] = vec.With(strconv.Itoa(i))
	}
}

// cap returns the effective retention bound; callers hold t.mu.
func (t *tracer) cap() int {
	if t.capacity > 0 {
		return t.capacity
	}
	return defaultTraceCapacity
}

// evictTo shrinks the store to at most n traces (FIFO); callers hold t.mu.
func (t *tracer) evictTo(n int) {
	for len(t.order) > n {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
}

// sample decides whether the next publish is traced, returning its trace
// id (0 = untraced).
func (t *tracer) sample() uint64 {
	every := t.every.Load()
	if every == 0 {
		return 0
	}
	if t.pubs.Add(1)%every != 0 {
		return 0
	}
	return t.nextID.Add(1)
}

// begin registers a new trace.
func (t *tracer) begin(id uint64, origin topology.NodeID, event string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traces == nil {
		t.traces = make(map[uint64]*Trace)
	}
	t.evictTo(t.cap() - 1)
	t.traces[id] = &Trace{ID: id, Origin: int(origin), Event: event, StartUnixNanos: time.Now().UnixNano()}
	t.order = append(t.order, id)
}

// visit records the routed event arriving at a broker in a message of
// wire size `bytes`.
func (t *tracer) visit(id uint64, broker topology.NodeID, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr := t.traces[id]; tr != nil {
		tr.Path = append(tr.Path, int(broker))
		tr.CumBytes += bytes
	}
}

// addBytes accounts a remote delivery's wire size against the trace.
func (t *tracer) addBytes(id uint64, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr := t.traces[id]; tr != nil {
		tr.CumBytes += bytes
	}
}

// hop appends one filter decision. A delivered decision additionally
// observes publish→deliver latency on the broker's end-to-end histogram
// (the trace carries the publish timestamp; untraced events never reach
// this path).
func (t *tracer) hop(id uint64, broker topology.NodeID, decision string, matched, bytes int) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	var start int64
	if tr := t.traces[id]; tr != nil {
		tr.Hops = append(tr.Hops, TraceHop{
			Broker: int(broker), Decision: decision, Matched: matched, Bytes: bytes,
			UnixNanos: now,
		})
		start = tr.StartUnixNanos
	}
	t.mu.Unlock()
	if decision == DecisionDelivered && start > 0 && now >= start &&
		int(broker) < len(t.latency) {
		t.latency[broker].Observe(float64(now-start) / 1e9)
	}
}

// snapshot deep-copies the retained traces, most recent first.
func (t *tracer) snapshot() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.order))
	for i := len(t.order) - 1; i >= 0; i-- {
		tr := t.traces[t.order[i]]
		if tr == nil {
			continue
		}
		cp := *tr
		cp.Path = append([]int(nil), tr.Path...)
		cp.Hops = append([]TraceHop(nil), tr.Hops...)
		out = append(out, cp)
	}
	return out
}

// SetTraceSampling turns hop tracing on (trace every Nth published event)
// or off (every ≤ 0). Traces already recorded are retained either way.
// Safe to call at any time, including concurrently with Publish.
func (net *Network) SetTraceSampling(every int) {
	if every < 0 {
		every = 0
	}
	net.tracer.every.Store(uint64(every))
}

// TraceSampling returns the current sampling interval (0 = off).
func (net *Network) TraceSampling() int { return int(net.tracer.every.Load()) }

// Traces returns copies of the retained hop traces, most recent first.
// In-flight events may still be appending to their trace; call Flush
// first for settled records.
func (net *Network) Traces() []Trace { return net.tracer.snapshot() }

// SetTraceCapacity bounds the trace store to the newest n traces
// (n ≤ 0 restores the default of 256). Shrinking evicts the oldest
// traces immediately.
func (net *Network) SetTraceCapacity(n int) {
	t := &net.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	t.capacity = n
	t.evictTo(t.cap())
}

// TraceCapacity returns the current trace retention bound.
func (net *Network) TraceCapacity() int {
	t := &net.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cap()
}

// ClearTraces discards every retained trace (sampling state is
// unchanged). Debug operation: lets an operator isolate the traces of
// the traffic they are about to send.
func (net *Network) ClearTraces() {
	t := &net.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictTo(0)
}

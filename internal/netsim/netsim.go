// Package netsim provides the in-process message-passing substrate for the
// live broker engine: one unbounded mailbox per broker, one scheduler that
// runs the brokers' handlers on a pool of workers, quiescence detection
// (wait until every sent message has been fully processed, including
// messages sent while processing), and per-kind byte/message accounting.
//
// No broker owns a goroutine. A broker is runnable while its mailbox holds
// messages and no worker holds it; up to GOMAXPROCS workers each take a
// runnable broker and hand its handler a drained run of its mailbox. A
// broker one handler makes runnable runs next on the same worker, so an
// event's walk from broker to broker is a chain of calls on one worker
// rather than a wake-up per hop (see sched.go). A handler never runs on
// two workers at once, and each mailbox drains in arrival order.
//
// Unbounded mailboxes rule out the classic actor deadlock where two
// brokers block sending to each other's full inboxes; memory is bounded in
// practice by quiescence between experiment phases.
//
// Loss is never silent: fault-injected drops, messages the receiver could
// not read, and handler-side processing failures each have their own
// per-kind counter in Stats, so experiments can verify that observed
// bandwidth/coverage figures account for every message sent.
//
// Every broker lives in this process, so a message carries a value (Body)
// rather than bytes, together with the length its wire form would have
// (Size), which the sender computes. The bus counts, drops and parks
// messages by Size and never looks inside Body.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/topology"
)

// Kind tags a message for accounting and dispatch.
type Kind uint8

// Message kinds used by the engine.
const (
	KindSummary Kind = iota + 1 // propagation: merged summary + Merged_Brokers
	KindEvent                   // routing: event + BROCLI + delivered set
	KindDeliver                 // delivery to an owning broker
	KindControl                 // coordinator control traffic (not counted as data)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSummary:
		return "summary"
	case KindEvent:
		return "event"
	case KindDeliver:
		return "deliver"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one broker-to-broker datagram.
type Message struct {
	From, To topology.NodeID
	Kind     Kind
	// Body is the message's value, opaque to the bus: sender and receiver
	// agree on its type per Kind.
	Body any
	// Size is the length of the message's wire form, as the sender
	// computed it: what the bus accounts it by.
	Size int
}

// Handler processes one message on a bus worker. The bus keeps no
// reference to a message once its handler returns, nor to one it drops
// or discards, so the handler may keep or recycle what Body points to. A
// fault hook (SetDropFunc) sees the message before its recipient does: it
// may read Body, never keep or change it.
type Handler func(Message)

// Stats is a snapshot of bus accounting.
type Stats struct {
	Messages map[Kind]int64
	Bytes    map[Kind]int64
	// Dropped counts messages removed by the fault-injection hook (they
	// never reach a mailbox and are excluded from Messages/Bytes).
	Dropped map[Kind]int64
	// DroppedBytes sums the Size of dropped messages, so byte accounting
	// reconciles end-to-end: what a sender put on the wire for a kind
	// equals Bytes[kind] + DroppedBytes[kind].
	DroppedBytes map[Kind]int64
	// DecodeErrors counts delivered messages the receiving handler could
	// not read: bytes that do not decode (a summary carries its wire form)
	// or a Body of a type the kind does not carry.
	DecodeErrors map[Kind]int64
	// HandlerErrors counts delivered, well-formed messages the receiving
	// handler failed to process (e.g. a summary merge rejection).
	HandlerErrors map[Kind]int64
}

// TotalMessages sums message counts over data kinds (control excluded).
func (s Stats) TotalMessages() int64 {
	var n int64
	for k, v := range s.Messages {
		if k != KindControl {
			n += v
		}
	}
	return n
}

// TotalBytes sums message sizes over data kinds (control excluded).
func (s Stats) TotalBytes() int64 {
	var n int64
	for k, v := range s.Bytes {
		if k != KindControl {
			n += v
		}
	}
	return n
}

// TotalDropped sums fault-injected drops over all kinds.
func (s Stats) TotalDropped() int64 {
	var n int64
	for _, v := range s.Dropped {
		n += v
	}
	return n
}

// TotalErrors sums decode and handler errors over all kinds.
func (s Stats) TotalErrors() int64 {
	var n int64
	for _, v := range s.DecodeErrors {
		n += v
	}
	for _, v := range s.HandlerErrors {
		n += v
	}
	return n
}

// Instrument exposes the bus accounting in r: the per-kind counters as
// the "bus_messages", "bus_dropped", "bus_dropped_bytes",
// "bus_decode_errors" and "bus_handler_errors" {kind} families, and the
// in-flight message depth as the "bus_inflight" gauge. Each is read from
// the bus's own atomics at snapshot time, so a send counts once. Bytes
// sent per kind are served by Stats (the wire protocol's stats reply).
func (b *Bus) Instrument(r *metrics.Registry) {
	for _, f := range []struct {
		name string
		c    *kindCounters
	}{
		{"bus_messages", &b.messages},
		{"bus_dropped", &b.dropped},
		{"bus_dropped_bytes", &b.droppedBytes},
		{"bus_decode_errors", &b.decodeErrs},
		{"bus_handler_errors", &b.handlerErrs},
	} {
		for k := KindSummary; k <= KindControl; k++ {
			r.CounterFunc(metrics.Label(f.name, k.String()), f.c[k].Load)
		}
	}
	r.GaugeFunc("bus_inflight", b.inflight.Load)
}

// kindCounters is a lock-free per-kind counter array, indexed by Kind.
// Out-of-range kinds (a corrupt tag) are counted nowhere rather than
// panicking.
type kindCounters [KindControl + 1]atomic.Int64

func (c *kindCounters) add(k Kind, v int64) {
	if int(k) < len(c) {
		c[k].Add(v)
	}
}

// toMap snapshots the nonzero entries (matching the former map-backed
// accounting, which only held kinds that were ever counted).
func (c *kindCounters) toMap() map[Kind]int64 {
	m := make(map[Kind]int64)
	for k := range c {
		if v := c[k].Load(); v != 0 {
			m[Kind(k)] = v
		}
	}
	return m
}

// Bus connects n brokers with unbounded mailboxes.
//
// Per-kind accounting lives in atomic counter arrays and the in-flight
// depth is an atomic. A send locks its destination's mailbox and, when it
// makes that broker runnable and cannot hand it to the worker running the
// sender, the run queue. The only other lock a send can take is faultMu,
// and only while some fault layer is active (tests and chaos scenarios);
// production sends pay one atomic bool load for it.
type Bus struct {
	boxes  []*mailbox
	closed atomic.Bool
	sched  *sched

	// In-flight accounting for Quiesce: an atomic counter, with a
	// mutex+cond used purely as the sleep/wake mechanism. doneInflight
	// broadcasts under qmu whenever the counter hits zero; Quiesce re-reads
	// the counter under qmu before sleeping, so a zero-crossing between its
	// check and its wait cannot be missed (the broadcaster needs qmu, which
	// the waiter holds until it sleeps).
	qmu      sync.Mutex
	qcond    *sync.Cond
	inflight atomic.Int64

	// rec optionally journals drops and decode errors into a flight
	// recorder; nil (the default) costs one atomic load and branch.
	rec atomic.Pointer[flight.Recorder]

	messages     kindCounters
	bytes        kindCounters
	dropped      kindCounters
	droppedBytes kindCounters
	decodeErrs   kindCounters
	handlerErrs  kindCounters

	// The layered fault plane (partitions, per-kind loss, paused brokers,
	// plus the custom drop predicate) is evaluated serialized under
	// faultMu so hooks may keep unsynchronized state; hasFault lets the
	// hot path skip the lock entirely when no layer is active.
	faultMu  sync.Mutex
	faults   faultState
	hasFault atomic.Bool
}

// NewBus creates a bus for n brokers whose handlers run on up to
// GOMAXPROCS workers (the value when NewBus is called), started as work
// arrives.
func NewBus(n int) *Bus { return newBus(n, nil) }

// NewSteppedBus creates a bus for n brokers that starts no worker. Its
// handlers run only inside Quiesce, on the caller's goroutine, one run at
// a time: each step draws a runnable broker and a run length (1 to the
// batch bound) from a generator seeded with seed, through the same run
// code as the pooled bus. A schedule is a function of the seed and the
// sends made between Quiesce calls, so drive a stepped bus from one
// goroutine.
func NewSteppedBus(n int, seed int64) *Bus {
	return newBus(n, rand.New(rand.NewSource(seed)))
}

func newBus(n int, rng *rand.Rand) *Bus {
	b := &Bus{boxes: make([]*mailbox, n)}
	b.qcond = sync.NewCond(&b.qmu)
	for i := range b.boxes {
		b.boxes[i] = new(mailbox)
	}
	b.sched = newSched(b, rng)
	return b
}

// Len returns the number of endpoints.
func (b *Bus) Len() int { return len(b.boxes) }

// SetDropFunc installs a fault-injection hook: messages for which fn
// returns true are dropped before delivery (they count in the Dropped
// stats, not in Messages/Bytes). Pass nil to disable. Intended for tests;
// fn runs under the bus lock and must be fast and deterministic.
//
// The hook is one layer of the fault plane: installing or clearing it
// leaves partitions, loss rates, and paused brokers untouched (see
// Faults).
func (b *Bus) SetDropFunc(fn func(Message) bool) {
	b.faultMu.Lock()
	b.faults.custom = fn
	b.faultMu.Unlock()
	b.refreshFaultGate()
}

// SetFlight attaches a flight recorder: fault-injected drops and decode
// errors are journaled as they happen, with the destination broker and
// kind. Pass nil to detach.
func (b *Bus) SetFlight(rec *flight.Recorder) {
	b.rec.Store(rec)
}

// RecordDecodeErrorAt counts a delivered message the handler at broker
// at could not read, so that no message vanishes without a counter; the
// flight-recorder entry names where it failed (pass -1 when unknown).
func (b *Bus) RecordDecodeErrorAt(k Kind, at topology.NodeID) {
	b.decodeErrs.add(k, 1)
	if rec := b.rec.Load(); rec != nil {
		rec.Record(flight.EvDecodeError, int(at), int64(k), 0, 0, k.String())
	}
}

// RecordHandlerError counts a delivered, decodable message whose
// processing failed at the handler (e.g. a rejected summary merge).
func (b *Bus) RecordHandlerError(k Kind) {
	b.handlerErrs.add(k, 1)
}

// doneInflight retires n delivered (or discarded) messages.
func (b *Bus) doneInflight(n int64) {
	if n == 0 {
		return
	}
	v := b.inflight.Add(-n)
	if v < 0 {
		panic("netsim: negative in-flight count")
	}
	if v == 0 {
		// Broadcast under qmu so a Quiesce between its counter check and
		// its cond wait cannot miss this zero-crossing.
		b.qmu.Lock()
		b.qcond.Broadcast()
		b.qmu.Unlock()
	}
}

// Send enqueues a message for delivery. It is safe to call from handlers
// and from any goroutine, concurrently with Quiesce. When the send makes
// the destination runnable and m.From names a broker whose handler a
// worker is running, the destination runs next on that worker; otherwise
// it joins the run queue. A caller outside every handler that names a
// broker as m.From uses Post instead. When Send returns nil, the message
// is the bus's and then its recipient's: the sender must not touch Body
// again.
func (b *Bus) Send(m Message) error { return b.send(m, true) }

// Post is Send for a caller outside every handler: a destination the send
// makes runnable always joins the run queue, even when m.From names a
// broker whose handler a worker is running at that moment — so an outside
// send never takes that worker's hand-off slot.
func (b *Bus) Post(m Message) error { return b.send(m, false) }

// send enqueues m; fromHandler lets a send naming a running broker as
// m.From hand the destination to that broker's worker.
func (b *Bus) send(m Message, fromHandler bool) error {
	if int(m.To) < 0 || int(m.To) >= len(b.boxes) {
		return fmt.Errorf("netsim: destination %d out of range", m.To)
	}
	if b.closed.Load() {
		return fmt.Errorf("netsim: bus closed")
	}
	if b.hasFault.Load() && b.applyFaults(m) {
		return nil
	}
	b.messages.add(m.Kind, 1)
	b.bytes.add(m.Kind, int64(m.Size))
	b.inflight.Add(1)
	var sender *worker
	if fromHandler {
		sender = b.runner(m.From)
	}
	if !b.enqueue(m, sender) {
		return fmt.Errorf("netsim: mailbox %d closed", m.To)
	}
	return nil
}

// runner returns the worker inside broker id's handler, nil when there is
// none (or id names no broker).
func (b *Bus) runner(id topology.NodeID) *worker {
	if int(id) < 0 || int(id) >= len(b.boxes) {
		return nil
	}
	return b.boxes[id].runner.Load()
}

// enqueue appends m, already counted in flight, to its recipient's
// mailbox and schedules the recipient if that made it runnable: through
// the hand-off slot of sender when it is a worker inside a handler, else
// through the run queue. On a closed mailbox it retires m and returns
// false.
func (b *Bus) enqueue(m Message, sender *worker) bool {
	box := b.boxes[m.To]
	ok, runnable := box.push(m)
	if !ok {
		b.doneInflight(1)
		return false
	}
	if runnable {
		b.sched.ready(box, sender)
	}
	return true
}

// Start registers the handler for one broker, handing h one message at a
// time. Each broker must be started exactly once (with Start or
// StartBatch); the handler runs until Close.
func (b *Bus) Start(node topology.NodeID, h Handler) {
	b.StartBatch(node, func(ms []Message) {
		for _, m := range ms {
			h(m)
		}
	})
}

// BatchHandler processes a batch of messages on a bus worker, in arrival
// order. The messages are the handler's as Handler's are; the slice is
// the worker's and must not be retained.
type BatchHandler func([]Message)

// StartBatch registers the handler for one broker with batched intake:
// whenever the broker has pending messages and no worker holds it, a
// worker drains up to maxBatch of them and hands them to h in one call,
// amortizing in-flight retirement and the handler's own per-batch
// bookkeeping. Messages sent before StartBatch wait in the mailbox and
// make the broker runnable now. No goroutine is started for the broker,
// and the batch buffers belong to the workers, so an idle broker holds
// none.
//
// h runs on whichever worker takes the broker, never on two at once. A
// broker h makes runnable usually runs next on the same worker. h must not
// block: the bus has no more workers than GOMAXPROCS, so a call that waits
// on something outside the bus stalls every broker queued behind it.
func (b *Bus) StartBatch(node topology.NodeID, h BatchHandler) {
	box := b.boxes[node]
	box.mu.Lock()
	box.h = h
	runnable := len(box.queue) > box.head && !box.scheduled
	box.scheduled = box.scheduled || runnable
	box.mu.Unlock()
	if runnable {
		b.sched.enqueue(box)
	}
}

// Inflight reports the number of sent-but-not-yet-handled messages at
// this instant. Used by the invariant watchdog to decide whether flow
// conservation can be checked strictly (a nonzero depth means routed
// events may still be mid-flight between counters).
func (b *Bus) Inflight() int64 { return b.inflight.Load() }

// Quiesce blocks until every message sent so far — including messages sent
// by handlers while processing — has been handled. With senders running
// concurrently, it returns at a moment when the bus was observed empty;
// messages sent after that moment are not waited for.
//
// On a stepped bus (NewSteppedBus) Quiesce is what runs the handlers: it
// steps the bus on the calling goroutine until no broker is runnable.
func (b *Bus) Quiesce() {
	if b.sched.rng != nil {
		b.sched.stepAll()
	}
	b.qmu.Lock()
	for b.inflight.Load() > 0 {
		b.qcond.Wait()
	}
	b.qmu.Unlock()
}

// Close shuts the bus down and waits for every worker to finish the
// handler call it is in, if any, and exit; a handler that never returns
// keeps Close waiting. Unprocessed messages are dropped (their in-flight
// count is released), including messages parked for paused brokers.
func (b *Bus) Close() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	b.faultMu.Lock()
	b.faults.held = nil
	b.faultMu.Unlock()
	for _, box := range b.boxes {
		box.mu.Lock()
		discarded := len(box.queue) - box.head
		box.queue, box.head = nil, 0
		box.closed = true
		box.mu.Unlock()
		b.doneInflight(int64(discarded))
	}
	b.sched.close()
}

// Stats returns a snapshot of the accounting counters. With senders
// running concurrently the per-kind values are each exact but the
// snapshot as a whole is not atomic; quiesce first for totals that must
// reconcile.
func (b *Bus) Stats() Stats {
	return Stats{
		Messages:      b.messages.toMap(),
		Bytes:         b.bytes.toMap(),
		Dropped:       b.dropped.toMap(),
		DroppedBytes:  b.droppedBytes.toMap(),
		DecodeErrors:  b.decodeErrs.toMap(),
		HandlerErrors: b.handlerErrs.toMap(),
	}
}

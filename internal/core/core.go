// Package core is the live engine of the subscription-summarization
// system: a network of broker nodes (actors over an in-process message
// bus, run by the bus's workers) that implements the paper end to end —
// per-broker summaries (Section 3), multi-broker summary propagation
// (Algorithm 2, run periodically over real messages), and distributed
// event processing (Algorithm 3) with exact re-matching and consumer
// delivery at owning brokers.
//
// The deterministic experiment harness lives in the propagation, routing,
// siena, and broadcast packages; this engine demonstrates the same
// algorithms running asynchronously with real wire-format payloads and
// per-kind byte accounting.
//
// The overlay is fixed at New: the Algorithm 2 send schedule
// (propagation.Schedule) and the Algorithm 3 examination order
// (Graph.NodesByDegreeDesc) are derived from Config.Topology there, once, and
// neither the period engine nor the event path looks at the graph again —
// an edge added to it afterwards is seen by neither.
//
// Concurrency model: a broker's message processing runs on whichever bus
// worker holds the broker, and at most one worker holds it at a time (the
// bus hands a broker between workers under its mailbox lock), so the
// handler owns the broker's run scratch; Propagate owns the period state
// and publishes it to handlers through an atomic pointer; every message
// that cannot be processed (undecodable payload, rejected merge) is
// counted on the bus rather than silently discarded.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// Config parametrizes a Network.
type Config struct {
	Topology *topology.Graph
	Schema   *schema.Schema
	// Mode selects AACS equality handling (interval.Lossy = the paper).
	Mode interval.Mode
	// MaxSubscriptionsPerBroker bounds c2 (0 = unbounded).
	MaxSubscriptionsPerBroker int
	// FullSyncEvery makes every k-th Propagate period ship the full merged
	// summary (with the full Merged_Brokers set) instead of the per-period
	// delta, so peers that lost summary messages in earlier periods recover
	// the missing coverage. 0 disables full syncs; 1 makes every period a
	// full sync (the pre-delta behavior).
	FullSyncEvery int
	// Metrics receives the network's runtime instruments (engine counters,
	// per-broker families, bus accounting). When nil, New creates a private
	// registry — the engine is always instrumented; Metrics only controls
	// where the numbers land. Retrieve it with Network.Metrics.
	Metrics *metrics.Registry
	// Flight, when non-nil, journals structured engine events (subscription
	// churn, propagation periods, merge outcomes, drops, decode errors,
	// watchdog violations) into a bounded flight recorder. Nil costs one
	// branch on the affected paths. Retrieve it with Network.Flight.
	Flight *flight.Recorder
}

// Network is a running broker network. Create with New, stop with Close.
type Network struct {
	cfg     Config
	brokers []*broker.Broker
	bus     *netsim.Bus
	// schedule (Algorithm 2: who sends to whom, iteration by iteration) and
	// order (Algorithm 3: which broker an event is forwarded to next) are
	// functions of the overlay, derived once in New and read-only after.
	schedule []propagation.Round
	order    []topology.NodeID

	// periodMu serializes Propagate calls; period is the working set of the
	// propagation period currently in flight (nil between periods). It is
	// an atomic pointer because broker handlers read it while the
	// Propagate goroutine installs and clears it — a plain field here is a
	// data race with late summary messages around period boundaries.
	periodMu sync.Mutex
	period   atomic.Pointer[periodState]
	// periods counts completed Propagate calls (under periodMu), driving
	// the FullSyncEvery schedule. periodCount mirrors it atomically so
	// Convergence can read the current period without contending for the
	// period lock.
	periods     int
	periodCount atomic.Int64
	// churnSeq counts Subscribe/Unsubscribe calls; the watchdog's
	// convergence check uses it to prove the subscription set was stable
	// across a full-sync period before asserting exact remote counts.
	churnSeq atomic.Int64
	// lastPeriodFullSync and churnAtPeriodStart (under periodMu) describe
	// the most recently completed period for the convergence check.
	lastPeriodFullSync bool
	churnAtPeriodStart int64

	metrics   *metrics.Registry
	obs       netObs
	staleness []*metrics.Gauge     // per-broker convergence_staleness_periods
	attrib    *broker.FPAttributor // shared false-positive attribution sink
	tracer    tracer
	rec       *flight.Recorder // nil unless Config.Flight was set

	// scratch[i] is broker i's event-run working set, owned by broker i's
	// handler: the bus runs it on one worker at a time — no locking.
	scratch []runScratch
	// zero is the empty BROCLI and delivered set every publish encodes,
	// sized for the broker count; read-only.
	zero subid.Mask

	watchdog *Watchdog // nil until StartWatchdog
}

// runScratch is one broker handler's reusable working set for a run of
// events: the events with their per-event masks, and the remote deliver
// records the run owes, chained per owner in event order. A record names
// its event, the owner's ids in that event's match result
// (res[ev][lo:hi]) and where the event's bytes start in enc: a sent event
// is encoded once per run, at its first record. heads[o] and tails[o] are
// owner o's first and last record, meaningful only while owners holds o;
// drainOwners visits the owners in ascending order and leaves every chain
// empty. The masks are decoded into the storage earlier runs left in
// broclis/delivs beyond their length, so they must not outlive the run.
// recs and keys hold a decoded deliver payload (the handler is never
// inside a run when it decodes one), and hits an exact pass's matches.
// Everything grows on demand — the owner-indexed slices to the highest
// owner a run sends to — so a broker that routes short runs holds little.
type runScratch struct {
	events       []*schema.Event
	broclis      []subid.Mask
	delivs       []subid.Mask
	sends        []deliverSend
	owners       subid.Mask
	heads, tails []int32
	enc          []byte
	encoded      int // the run's event last encoded into enc, -1 for none
	encStart     int // where its bytes start in enc
	recs         []deliverRecord
	keys         []uint64
	hits         broker.Hits
}

// deliverSend is one remote deliver record of a run, a link of its
// owner's chain.
type deliverSend struct {
	ev, lo, hi int32 // the event's index in the run and its ids res[ev][lo:hi]
	next       int32 // the owner's next record, -1 at the chain's end
	start      int   // the event's bytes start at enc[start]
}

// netObs holds the engine-level instruments, resolved once in New.
type netObs struct {
	eventsPublished    *metrics.Counter   // Publish calls accepted
	eventsRouted       *metrics.Counter   // Algorithm 3 hops processed
	eventsForwarded    *metrics.Counter   // events sent on to the next broker
	eventsSuppressed   *metrics.Counter   // walks ended by a complete BROCLI
	deliverSends       *metrics.Counter   // remote owner deliveries sent
	propagationPeriods *metrics.Counter   // completed Algorithm 2 periods
	propagationHops    *metrics.Counter   // summary messages sent
	propagationBytes   *metrics.Counter   // cumulative summary payload bytes
	periodBytes        *metrics.Histogram // summary payload bytes per period
	periodSeconds      *metrics.Histogram // wall time per period
}

func newNetObs(r *metrics.Registry) netObs {
	return netObs{
		eventsPublished:    r.Counter("events_published"),
		eventsRouted:       r.Counter("events_routed"),
		eventsForwarded:    r.Counter("events_forwarded"),
		eventsSuppressed:   r.Counter("events_suppressed"),
		deliverSends:       r.Counter("deliver_sends"),
		propagationPeriods: r.Counter("propagation_periods"),
		propagationHops:    r.Counter("propagation_hops"),
		propagationBytes:   r.Counter("propagation_bytes"),
		periodBytes:        r.Histogram("propagation_period_bytes", metrics.DefSizeBuckets),
		periodSeconds:      r.Histogram("propagation_period_seconds", metrics.DefLatencyBuckets),
	}
}

// periodState is the per-propagation-period working set of Algorithm 2.
// Broker handlers fold received summaries into it concurrently with the
// Propagate goroutine reading it between iterations, so sums/sets are
// guarded by mu.
type periodState struct {
	mu   sync.Mutex
	sums []*summary.Summary // per broker: delta ⊕ summaries received this period
	sets []subid.Mask       // per broker: this period's Merged_Brokers
}

// New builds the network and registers every broker's handler with the
// bus. No goroutine is started per broker: the bus runs handlers on up to
// GOMAXPROCS workers of its own, started as traffic arrives.
func New(cfg Config) (*Network, error) { return newOnBus(cfg, netsim.NewBus) }

// newOnBus is New over the bus newBus makes for the broker count.
func newOnBus(cfg Config, newBus func(n int) *netsim.Bus) (*Network, error) {
	if cfg.Topology == nil || cfg.Schema == nil {
		return nil, fmt.Errorf("core: topology and schema are required")
	}
	n := cfg.Topology.Len()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	net := &Network{
		cfg:     cfg,
		brokers: make([]*broker.Broker, n),
		bus:     newBus(n),
		metrics: reg,
		rec:     cfg.Flight,
	}
	net.obs = newNetObs(reg)
	net.staleness = newStalenessGauges(reg, n)
	net.attrib = broker.NewFPAttributor(cfg.Schema, reg, cfg.Flight, n)
	net.tracer.initLatency(reg, n)
	net.bus.Instrument(reg)
	net.bus.SetFlight(cfg.Flight)
	for i := 0; i < n; i++ {
		b, err := broker.New(broker.Config{
			ID:               topology.NodeID(i),
			Schema:           cfg.Schema,
			Mode:             cfg.Mode,
			NumBrokers:       n,
			MaxSubscriptions: cfg.MaxSubscriptionsPerBroker,
			Metrics:          reg,
			Flight:           cfg.Flight,
			Attribution:      net.attrib,
		})
		if err != nil {
			return nil, err
		}
		net.brokers[i] = b
	}
	net.schedule = propagation.Schedule(cfg.Topology)
	net.order = cfg.Topology.NodesByDegreeDesc()
	net.scratch = make([]runScratch, n)
	net.zero = subid.NewMask(n)
	for i := 0; i < n; i++ {
		node := topology.NodeID(i)
		net.bus.StartBatch(node, func(ms []netsim.Message) { net.handleBatch(node, ms) })
	}
	return net, nil
}

// Close shuts down the network; pending messages are dropped. A running
// watchdog is stopped first so it never checks a closed bus.
func (net *Network) Close() {
	if net.watchdog != nil {
		net.watchdog.Stop()
	}
	net.bus.Close()
}

// Flight returns the network's flight recorder (nil when Config.Flight
// was not set).
func (net *Network) Flight() *flight.Recorder { return net.rec }

// Subscribe registers a consumer subscription at the given broker. The
// event deliver is called with is shared with every other consumer and
// broker of that publish (see broker.DeliveryFunc): read-only.
func (net *Network) Subscribe(at topology.NodeID, sub *schema.Subscription, deliver broker.DeliveryFunc) (subid.ID, error) {
	if int(at) < 0 || int(at) >= len(net.brokers) {
		return subid.ID{}, fmt.Errorf("core: broker %d out of range", at)
	}
	id, err := net.brokers[at].Subscribe(sub, deliver)
	if err == nil {
		net.churnSeq.Add(1)
	}
	return id, err
}

// Unsubscribe removes a locally owned subscription. If it had already
// propagated, the next period's delta carries its retraction so remote
// merged summaries shrink.
func (net *Network) Unsubscribe(id subid.ID) error {
	b := int(id.Broker)
	if b < 0 || b >= len(net.brokers) {
		return fmt.Errorf("core: broker %d out of range", id.Broker)
	}
	err := net.brokers[b].Unsubscribe(id)
	if err == nil {
		net.churnSeq.Add(1)
	}
	return err
}

// ExtendSchema appends an attribute to the shared schema at runtime — the
// paper's Section 6 extension ("this only requires changing the c3 field
// of subscription ids"). All brokers share the schema object, so the new
// attribute is immediately usable in subscriptions and events; existing
// subscription ids keep their c3 masks (the new bit is unset) and keep
// matching exactly as before.
func (net *Network) ExtendSchema(name string, t schema.Type) (schema.AttrID, error) {
	return net.cfg.Schema.Add(name, t)
}

// Schema returns the network's shared schema (the snapshot's schema after
// LoadSnapshot).
func (net *Network) Schema() *schema.Schema { return net.cfg.Schema }

// Broker exposes a broker's state for inspection.
func (net *Network) Broker(id topology.NodeID) *broker.Broker { return net.brokers[id] }

// Len returns the number of brokers.
func (net *Network) Len() int { return len(net.brokers) }

// Stats returns the bus accounting (real bytes on the wire per kind, plus
// per-kind drop/decode-error/handler-error counters).
func (net *Network) Stats() netsim.Stats { return net.bus.Stats() }

// Metrics returns the network's instrument registry: engine counters,
// per-broker instrument families, and bus accounting, all live.
func (net *Network) Metrics() *metrics.Registry { return net.metrics }

// InjectFaults installs a message-drop predicate on the bus — the
// custom-predicate layer of the fault plane, for drops the Faults
// primitives do not express (by sender, every nth message): messages for
// which fn returns true vanish (counted in Stats.Dropped).
// Summary-message loss degrades merged-summary coverage but never
// correctness — Algorithm 3's BROCLI walk examines every broker whose
// subscriptions it has not yet seen, so events still reach every matching
// consumer. Pass nil to heal.
func (net *Network) InjectFaults(fn func(netsim.Message) bool) { net.bus.SetDropFunc(fn) }

// Faults exposes the bus's layered fault plane — partitions, per-kind
// loss rates, broker pause/park — for scripted chaos scenarios. The
// layers compose with the InjectFaults hook and with each other; see
// netsim.Faults.
func (net *Network) Faults() netsim.Faults { return net.bus.Faults() }

// Propagate runs one Algorithm 2 period over the live bus: every broker's
// delta (subscriptions accumulated since the previous period) is merged
// and forwarded degree-by-degree with real summary payloads. It blocks
// until the period completes and returns the number of summary messages
// sent (the hop count of Figure 9). Safe to call concurrently with
// Publish and from multiple goroutines (periods are serialized).
func (net *Network) Propagate() (hops int, err error) {
	net.periodMu.Lock()
	defer net.periodMu.Unlock()
	start := time.Now()
	var periodBytes int64
	defer func() {
		net.obs.propagationPeriods.Inc()
		net.obs.propagationHops.Add(int64(hops))
		net.obs.propagationBytes.Add(periodBytes)
		net.obs.periodBytes.Observe(float64(periodBytes))
		net.obs.periodSeconds.Observe(time.Since(start).Seconds())
		net.rec.Record(flight.EvPeriodEnd, -1, int64(net.periods), int64(hops), periodBytes, "")
	}()
	n := len(net.brokers)
	net.periods++
	net.periodCount.Store(int64(net.periods))
	fullSync := net.cfg.FullSyncEvery > 0 && net.periods%net.cfg.FullSyncEvery == 0
	net.lastPeriodFullSync = false
	net.churnAtPeriodStart = net.churnSeq.Load()
	net.rec.Record(flight.EvPeriodStart, -1, int64(net.periods), 0, 0, "")
	if fullSync {
		net.rec.Record(flight.EvFullSync, -1, int64(net.periods), 0, 0, "")
	}
	period := &periodState{
		sums: make([]*summary.Summary, n),
		sets: make([]subid.Mask, n),
	}
	for i, b := range net.brokers {
		period.sums[i] = b.TakePeriodSummary(fullSync)
		if fullSync {
			// The resync reset Merged_Brokers to the broker itself, so this
			// carries exactly the owner of the payload's subscriptions.
			period.sets[i] = b.MergedBrokers()
		} else {
			period.sets[i] = subid.NewMask(n)
			period.sets[i].Set(i)
		}
	}
	net.period.Store(period)
	defer net.period.Store(nil)

	// bufs[i] is the encoded payload of the round's i-th send: encoded once
	// into a pooled buffer, which the bus shares with the recipient and
	// recycles after handling. An error return releases every buffer the
	// period still holds.
	var bufs []*netsim.SharedBuf
	releaseFrom := func(i int) {
		for _, sb := range bufs[i:] {
			sb.Release()
		}
	}
	for _, round := range net.schedule {
		bufs = bufs[:0]
		for _, h := range round.Sends {
			sb := netsim.AcquireBuf()
			bufs = append(bufs, sb)
			period.mu.Lock()
			sb.B, err = encodeSummaryMsg(sb.B, period.sums[h.From], period.sets[h.From], uint64(net.periods), fullSync)
			period.mu.Unlock()
			if err != nil {
				releaseFrom(0)
				return hops, fmt.Errorf("core: broker %d summary: %w", h.From, err)
			}
		}
		for i, h := range round.Sends {
			payloadLen := int64(len(bufs[i].B))
			// Propagate runs outside every handler: its sends must not take
			// the hand-off slot of a worker running h.From.
			err := net.bus.PostShared(netsim.Message{
				From: h.From, To: h.To, Kind: netsim.KindSummary,
			}, bufs[i])
			if err != nil {
				releaseFrom(i)
				return hops, err
			}
			bufs[i].Release()
			hops++
			periodBytes += payloadLen
		}
		// Deliveries land before the next iteration, as in Algorithm 2.
		net.bus.Quiesce()
	}
	if fullSync {
		// Every broker rebuilt from live subscriptions and the bus is
		// drained: ids fenced before the sync are now clean network-wide.
		for _, b := range net.brokers {
			b.FinishFullSync()
		}
	}
	net.lastPeriodFullSync = fullSync
	net.refreshConvergence()
	return hops, nil
}

// Publish injects an event at the given broker and returns immediately;
// Algorithm 3 runs asynchronously. Call Flush to wait for all deliveries.
// The event must be one of the network's schema: one that is not (built
// against another schema, or nil) is refused here, and nothing is sent.
// It is encoded once, for the bytes on the wire, and travels beside its
// bytes: every broker and every consumer it reaches in this process is
// handed the caller's own event, concurrently, so it must not be modified
// after Publish. When trace sampling is on (SetTraceSampling), every Nth
// publish carries a trace context recording its hop-by-hop walk; with
// sampling off the only cost here is one atomic load.
func (net *Network) Publish(at topology.NodeID, ev *schema.Event) error {
	if int(at) < 0 || int(at) >= len(net.brokers) {
		return fmt.Errorf("core: broker %d out of range", at)
	}
	if err := net.cfg.Schema.CheckEvent(ev); err != nil {
		return fmt.Errorf("core: publish: %w", err)
	}
	traceID := net.tracer.sample()
	if traceID != 0 {
		net.tracer.begin(traceID, at, ev.Format(net.cfg.Schema))
	}
	sb := netsim.AcquireBuf()
	var err error
	sb.B, err = encodeEventMsg(sb.B, ev, net.zero, net.zero, traceID)
	if err != nil {
		sb.Release()
		return fmt.Errorf("core: encode event: %w", err)
	}
	sb.Attached = append(sb.Attached, ev)
	sendErr := net.bus.SendShared(netsim.Message{From: at, To: at, Kind: netsim.KindEvent}, sb)
	sb.Release()
	if sendErr == nil {
		net.obs.eventsPublished.Inc()
	}
	return sendErr
}

// Flush blocks until every in-flight message (propagation, routing,
// deliveries) has been processed.
func (net *Network) Flush() { net.bus.Quiesce() }

// handleBatch processes one mailbox drain of broker `node`, on the bus
// worker running it, in arrival order: summary and deliver messages
// singly, consecutive event messages as one run — so batching never
// reorders events relative to summary merges. A traced event is a run of
// its own, which keeps its hop records and per-message byte accounting
// exact without letting it overtake the events queued before it. Messages
// that cannot be processed are counted on the bus, never silently dropped.
func (net *Network) handleBatch(node topology.NodeID, msgs []netsim.Message) {
	for i := 0; i < len(msgs); {
		j := i + 1
		switch msgs[i].Kind {
		case netsim.KindSummary:
			net.handleSummary(node, msgs[i])
		case netsim.KindDeliver:
			net.handleDeliver(node, msgs[i])
		case netsim.KindEvent:
			if !isTraced(msgs[i].Payload) {
				for j < len(msgs) && msgs[j].Kind == netsim.KindEvent && !isTraced(msgs[j].Payload) {
					j++
				}
			}
			net.routeRun(node, msgs[i:j])
		}
		i = j
	}
}

// handleDeliver exact-matches the subscriptions an owner-delivery payload
// names and notifies their consumers. The payload carries one record per
// event of the sender's run that matched this owner; a traced payload
// always carries one. No summary is matched here: the sender's match
// already named the candidates, and the broker looks each one up in its
// current raw subscriptions.
func (net *Network) handleDeliver(node topology.NodeID, m netsim.Message) {
	sc := &net.scratch[node]
	recs, keys, traceID, err := decodeDeliverMsg(net.cfg.Schema, m.Payload, m.Attached, subid.BrokerID(node), sc.recs[:0], sc.keys[:0])
	sc.recs, sc.keys = recs, keys // keep what they grew to
	if err != nil {
		net.bus.RecordDecodeErrorAt(netsim.KindDeliver, node)
		return
	}
	hits := 0
	for _, r := range recs {
		hits += net.brokers[node].DeliverExactCandidates(r.ev, keys[r.lo:r.hi], &sc.hits)
	}
	if traceID != 0 {
		net.tracer.addBytes(traceID, len(m.Payload))
		net.tracer.hop(traceID, node, deliveryDecision(hits), hits, len(m.Payload))
	}
}

// deliveryDecision names the outcome of an exact re-match for a trace.
func deliveryDecision(hits int) string {
	if hits == 0 {
		return DecisionFalsePositive
	}
	return DecisionDelivered
}

func (net *Network) handleSummary(node topology.NodeID, m netsim.Message) {
	// The payload is an epoch header, a Merged_Brokers mask, then a
	// wire-form summary; mask and summary fold in directly, so no
	// intermediate Summary is materialized and nothing of m.Payload (a
	// pooled shared buffer) is retained.
	h, n0, err := decodeSummaryHeader(m.Payload)
	if err != nil {
		net.bus.RecordDecodeErrorAt(netsim.KindSummary, node)
		return
	}
	set, off, err := decodeMask(nil, m.Payload[n0:], len(net.brokers))
	if err != nil {
		net.bus.RecordDecodeErrorAt(netsim.KindSummary, node)
		return
	}
	sumWire := m.Payload[n0+off:]
	b := net.brokers[node]
	if err := b.MergeEncodedSummaryEpoch(sumWire, set, broker.EpochInfo{
		Epoch:    int64(h.Epoch),
		FullSync: h.FullSync,
		Retract:  h.Retract,
	}); err != nil {
		// A malformed summary payload leaves at most a partial merge — the
		// documented dropped-message equivalence — and counts as a decode
		// error: the bytes, not the broker, were at fault.
		net.bus.RecordDecodeErrorAt(netsim.KindSummary, node)
		return
	}
	// Fold into the current period's working set so later iterations
	// forward it. Summary messages only exist while Propagate holds
	// periodMu, but the pointer load must still be atomic: a message
	// surviving past its period (bus backlog at Close, a dropped-then-
	// replayed payload) would otherwise race with the period teardown.
	// MergeEncoded cannot fail here: the same bytes just merged cleanly.
	if p := net.period.Load(); p != nil {
		p.mu.Lock()
		_ = p.sums[node].MergeEncoded(sumWire)
		for _, i := range set.Bits() {
			p.sets[node].Set(i)
		}
		p.mu.Unlock()
	}
}

// routeRun runs one Algorithm 3 hop for a run of k ≥ 1 consecutive event
// messages — the only implementation of the hop. The read side is
// lock-free: the whole run matches against one leased snapshot and takes
// the Merged_Brokers set of that same generation.
func (net *Network) routeRun(node topology.NodeID, msgs []netsim.Message) {
	sc := &net.scratch[node]
	sc.startRun()
	// Nonzero only for a run of one: handleBatch makes every traced event
	// a run of its own.
	var traceID uint64
	for _, m := range msgs {
		k := len(sc.events)
		ev, brocli, delivered, id, err := decodeEventMsg(net.cfg.Schema, m.Payload, carried(m.Attached, 0),
			len(net.brokers), spareMask(sc.broclis, k), spareMask(sc.delivs, k))
		if err != nil {
			net.bus.RecordDecodeErrorAt(netsim.KindEvent, node)
			continue
		}
		traceID = id
		sc.events = append(sc.events, ev)
		sc.broclis = append(sc.broclis, brocli)
		sc.delivs = append(sc.delivs, delivered)
	}
	k := len(sc.events)
	if k == 0 {
		return
	}
	// Count the whole run as routed before any terminal counter is
	// touched, so terminals ≤ routed holds at every instant (the watchdog
	// reads terminals first, routed last).
	net.obs.eventsRouted.Add(int64(k))
	if traceID != 0 {
		net.tracer.visit(traceID, node, len(msgs[0].Payload))
	}
	b := net.brokers[node]
	// Step 1: match the local merged summary.
	lease := b.AcquireMatcher()
	start := time.Now()
	res := lease.MatchBatch(sc.events)
	b.ObserveMatchRun(time.Since(start), k)
	shared := lease.MergedBrokers()
	matched := len(res[0]) // reported by trace hops only
	for i, ev := range sc.events {
		// Step 2: update BROCLIe.
		orMask(&sc.broclis[i], shared)
		// Step 3: hand the event to each newly matched owner, with the ids
		// that matched it — keys ascend, so an owner's are contiguous. Only
		// a corrupt peer summary names an owner beyond the overlay; there is
		// no broker to hand it to.
		keys := res[i]
		for lo, hi := 0, 0; lo < len(keys); lo = hi {
			hi = ownerRunEnd(keys, lo)
			owner := int(keys[lo] >> 32)
			if owner >= len(net.brokers) || sc.delivs[i].Has(owner) {
				continue
			}
			sc.delivs[i].Set(owner)
			if topology.NodeID(owner) != node {
				sc.chain(owner, i, lo, hi)
				continue
			}
			hits := b.DeliverExactCandidates(ev, keys[lo:hi], &sc.hits)
			if traceID != 0 {
				net.tracer.hop(traceID, node, deliveryDecision(hits), matched, 0)
			}
		}
	}
	// The deliver records name ids straight out of the match result, so the
	// lease is held until they are encoded.
	net.sendDelivers(node, sc, res, traceID)
	lease.Release()
	// Step 4: forward while BROCLIe is incomplete. Every routed event ends
	// in exactly one terminal counter — forwarded, suppressed, or handler
	// error — which is the flow-conservation invariant the watchdog checks.
	for i, ev := range sc.events {
		if sc.broclis[i].Count() < len(net.brokers) {
			net.forwardEvent(node, ev, sc.broclis[i], sc.delivs[i], traceID, matched)
			continue
		}
		net.obs.eventsSuppressed.Inc()
		if traceID != 0 {
			net.tracer.hop(traceID, node, DecisionSuppressed, matched, 0)
		}
	}
}

// sendDelivers sends the run's remote deliveries: per owner, in ascending
// owner order, one payload holding the owner's chain — a record for every
// event of the run that newly matched it, in event order: the message
// header, the owner's matched local ids and the event — so the bytes a
// delivery puts on the wire do not depend on what it happened to be
// batched with. The id lists make every owner's payload its own, so each
// is encoded into its own buffer, with each record's event attached in
// record order; the event's bytes are copied from the run's one encoding.
func (net *Network) sendDelivers(node topology.NodeID, sc *runScratch, res [][]uint64, traceID uint64) {
	sc.drainOwners(func(owner int) {
		sb := netsim.AcquireBuf()
		records := sc.appendChain(sb, traceID, res, owner)
		if net.bus.SendShared(netsim.Message{From: node, To: topology.NodeID(owner), Kind: netsim.KindDeliver}, sb) == nil {
			net.obs.deliverSends.Add(int64(records))
		}
		sb.Release()
	})
}

// startRun empties the run's events, masks and encoded bytes.
func (sc *runScratch) startRun() {
	sc.events, sc.broclis, sc.delivs = sc.events[:0], sc.broclis[:0], sc.delivs[:0]
	sc.enc, sc.encoded = sc.enc[:0], -1
}

// chain adds a deliver record for event ev of the run to the end of
// owner's chain, naming the ids res[ev][lo:hi]. A run chains its events
// in order, so the event is encoded at its first record.
func (sc *runScratch) chain(owner, ev, lo, hi int) {
	if ev != sc.encoded {
		sc.encoded, sc.encStart = ev, len(sc.enc)
		sc.enc = schema.EncodeEvent(sc.enc, sc.events[ev])
	}
	if owner >= len(sc.heads) {
		grow := owner + 1 - len(sc.heads)
		sc.heads = append(sc.heads, make([]int32, grow)...)
		sc.tails = append(sc.tails, make([]int32, grow)...)
	}
	r := int32(len(sc.sends))
	sc.sends = append(sc.sends, deliverSend{ev: int32(ev), lo: int32(lo), hi: int32(hi), next: -1, start: sc.encStart})
	if sc.owners.Has(owner) {
		sc.sends[sc.tails[owner]].next = r
	} else {
		sc.owners.Set(owner)
		sc.heads[owner] = r
	}
	sc.tails[owner] = r
}

// drainOwners calls fn for every owner with a chain, in ascending order,
// then leaves every chain empty.
func (sc *runScratch) drainOwners(fn func(owner int)) {
	for w, word := range sc.owners {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
		sc.owners[w] = 0
	}
	sc.sends = sc.sends[:0]
}

// appendChain appends owner's chain to sb — each record's bytes, with its
// event attached in record order — and returns the number of records.
func (sc *runScratch) appendChain(sb *netsim.SharedBuf, traceID uint64, res [][]uint64, owner int) int {
	n := 0
	for r := sc.heads[owner]; r >= 0; r = sc.sends[r].next {
		s := sc.sends[r]
		ev := sc.events[s.ev]
		sb.B = appendDeliverHead(sb.B, traceID, res[s.ev][s.lo:s.hi])
		sb.B = append(sb.B, sc.enc[s.start:s.start+schema.EncodedEventSize(ev)]...)
		sb.Attached = append(sb.Attached, ev)
		n++
	}
	return n
}

// ownerRunEnd returns the end of the run of entries that share keys[lo]'s
// high half: in an ascending match result, one owner's ids.
func ownerRunEnd(keys []uint64, lo int) int {
	hi := lo + 1
	for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
		hi++
	}
	return hi
}

// forwardEvent sends the event to the first unvisited broker in
// forwarding-preference order, ending the hop in exactly one terminal
// counter (forwarded or handler error). The event rides beside its bytes,
// so the next broker of this process does not decode it again.
func (net *Network) forwardEvent(node topology.NodeID, ev *schema.Event, brocli, delivered subid.Mask, traceID uint64, matchedLen int) {
	next, ok := routing.NextHop(net.order, brocli)
	if !ok {
		return // not reached: the caller forwards only while BROCLIe is incomplete
	}
	sb := netsim.AcquireBuf()
	var err error
	sb.B, err = encodeEventMsg(sb.B, ev, brocli, delivered, traceID)
	if err != nil {
		sb.Release()
		net.bus.RecordHandlerError(netsim.KindEvent)
		return
	}
	sb.Attached = append(sb.Attached, ev)
	payloadLen := len(sb.B)
	if net.bus.SendShared(netsim.Message{From: node, To: next, Kind: netsim.KindEvent}, sb) == nil {
		net.obs.eventsForwarded.Inc()
		if traceID != 0 {
			net.tracer.hop(traceID, node, DecisionForwarded, matchedLen, payloadLen)
		}
	} else {
		// A failed forward send (bus closing) still terminates this
		// event's walk; count it so flow conservation holds.
		net.bus.RecordHandlerError(netsim.KindEvent)
	}
	sb.Release()
}

// orMask folds src's bits into *dst, growing dst as needed.
func orMask(dst *subid.Mask, src subid.Mask) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	d := *dst
	for i, w := range src {
		d[i] |= w
	}
}

// maxMaskWords bounds an encoded mask: the word count travels as a u16.
// At 64 brokers per word that is room for 4 194 240 brokers.
const maxMaskWords = 1<<16 - 1

// encodeMask writes a mask as word count (u16, little-endian) + words. It
// fails rather than truncates when the mask exceeds the u16 word count.
func encodeMask(buf []byte, m subid.Mask) ([]byte, error) {
	if len(m) > maxMaskWords {
		return nil, fmt.Errorf("core: mask of %d words exceeds wire limit %d", len(m), maxMaskWords)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m)))
	for _, w := range m {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// decodeMask reads a mask of broker ids into dst's storage (nil allocates)
// and returns it with the bytes consumed. Any word count is accepted, a set
// bit at or beyond the broker count is not: no encoder here writes one, and
// taken at face value it would count towards a complete BROCLI — ending a
// walk before every broker was examined — or sit in a Merged_Brokers set
// for good.
func decodeMask(dst subid.Mask, buf []byte, brokers int) (subid.Mask, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("core: short mask")
	}
	words := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < 2+8*words {
		return nil, 0, fmt.Errorf("core: truncated mask")
	}
	m := slices.Grow(dst[:0], words)[:words]
	for i := range m {
		m[i] = binary.LittleEndian.Uint64(buf[2+8*i:])
	}
	for i := brokers / 64; i < words; i++ {
		w := m[i]
		if i == brokers/64 {
			w >>= uint(brokers % 64)
		}
		if w != 0 {
			return nil, 0, fmt.Errorf("core: mask names a broker beyond the %d there are", brokers)
		}
	}
	return m, 2 + 8*words, nil
}

// spareMask returns the storage a previous run left at masks[k], nil when
// masks never grew that far.
func spareMask(masks []subid.Mask, k int) subid.Mask {
	if k < cap(masks) {
		return masks[:k+1][k]
	}
	return nil
}

// carried returns the i-th attachment of a message if it is an event — the
// one a sender in this process encoded at that place of the payload — else
// nil, and the bytes are decoded.
func carried(att []any, i int) *schema.Event {
	if i >= len(att) {
		return nil
	}
	ev, _ := att[i].(*schema.Event)
	return ev
}

// Summary-payload flags (the first byte of every summary message). The
// epoch header exists so receivers can maintain per-peer convergence
// vectors: every payload names the sender's period sequence number, and
// the flags say whether it was a full sync and whether it carried
// retractions — the full-sync and retraction ages of the convergence
// report.
const (
	sumFlagFullSync = 0x01 // payload is a full-sync merged summary
	sumFlagRetract  = 0x02 // payload carries a retraction section
	sumFlagKnown    = sumFlagFullSync | sumFlagRetract
)

// summaryEpochHeader is the decoded convergence stamp of one summary
// payload: the sender's monotone period number plus the payload-class
// flags. Epoch 0 never occurs on the wire (periods start at 1), so it
// doubles as "untracked" in tests that hand-craft payloads.
type summaryEpochHeader struct {
	Epoch    uint64
	FullSync bool
	Retract  bool
}

// appendSummaryHeader writes the flags byte and epoch uvarint.
func appendSummaryHeader(buf []byte, h summaryEpochHeader) []byte {
	var flags byte
	if h.FullSync {
		flags |= sumFlagFullSync
	}
	if h.Retract {
		flags |= sumFlagRetract
	}
	buf = append(buf, flags)
	return binary.AppendUvarint(buf, h.Epoch)
}

// decodeSummaryHeader reads the flags byte and epoch uvarint, returning
// the consumed length. Unknown flag bits are a decode error, same as the
// event-message header: old payloads must fail loudly, not merge wrongly.
// The epoch must be in its shortest form, so a header that decodes has
// exactly one encoding.
func decodeSummaryHeader(buf []byte) (h summaryEpochHeader, n int, err error) {
	if len(buf) < 1 {
		return h, 0, fmt.Errorf("core: short summary header")
	}
	flags := buf[0]
	if flags&^byte(sumFlagKnown) != 0 {
		return h, 0, fmt.Errorf("core: unknown summary flags %#x", flags)
	}
	h.FullSync = flags&sumFlagFullSync != 0
	h.Retract = flags&sumFlagRetract != 0
	epoch, used := canonicalUvarint(buf[1:])
	if used == 0 {
		return h, 0, fmt.Errorf("core: bad summary epoch")
	}
	h.Epoch = epoch
	return h, 1 + used, nil
}

// encodeSummaryMsg appends a summary payload to buf (pass a pooled
// buffer's contents to avoid the allocation): the epoch header, the
// Merged_Brokers set, then the packed summary.
func encodeSummaryMsg(buf []byte, sum *summary.Summary, set subid.Mask, epoch uint64, fullSync bool) ([]byte, error) {
	buf = appendSummaryHeader(buf, summaryEpochHeader{
		Epoch:    epoch,
		FullSync: fullSync,
		Retract:  sum.NumRetractions() > 0,
	})
	buf, err := encodeMask(buf, set)
	if err != nil {
		return nil, err
	}
	return sum.Encode(buf), nil
}

// msgFlagTrace marks an event/deliver payload carrying a trace id (u64,
// little-endian) right after the flags byte. Untraced messages cost one
// flag byte; the trace context itself travels only on sampled events.
const msgFlagTrace = 0x01

// appendMsgHeader writes the flags byte and optional trace id.
func appendMsgHeader(buf []byte, traceID uint64) []byte {
	if traceID == 0 {
		return append(buf, 0)
	}
	buf = append(buf, msgFlagTrace)
	return binary.LittleEndian.AppendUint64(buf, traceID)
}

// decodeMsgHeader reads the flags byte and optional trace id, returning
// the consumed length.
func decodeMsgHeader(buf []byte) (traceID uint64, n int, err error) {
	if len(buf) < 1 {
		return 0, 0, fmt.Errorf("core: short message header")
	}
	flags := buf[0]
	if flags&^msgFlagTrace != 0 {
		return 0, 0, fmt.Errorf("core: unknown message flags %#x", flags)
	}
	n = 1
	if flags&msgFlagTrace != 0 {
		if len(buf) < 9 {
			return 0, 0, fmt.Errorf("core: truncated trace id")
		}
		traceID = binary.LittleEndian.Uint64(buf[1:9])
		if traceID == 0 {
			return 0, 0, fmt.Errorf("core: zero trace id")
		}
		n = 9
	}
	return traceID, n, nil
}

// encodeEventMsg appends a packed event with its BROCLI and delivered
// sets to buf, carrying the trace context of sampled events (traceID 0 =
// untraced).
func encodeEventMsg(buf []byte, ev *schema.Event, brocli, delivered subid.Mask, traceID uint64) ([]byte, error) {
	buf = appendMsgHeader(buf, traceID)
	buf, err := encodeMask(buf, brocli)
	if err != nil {
		return nil, err
	}
	buf, err = encodeMask(buf, delivered)
	if err != nil {
		return nil, err
	}
	return schema.EncodeEvent(buf, ev), nil
}

// decodeEventMsg decodes a routed-event payload, the masks into the storage
// of brocli and delivered (nil allocates). A non-nil ev is the event as the
// sender attached it: the event bytes are not parsed again, but must still
// be exactly as long as it encodes.
func decodeEventMsg(s *schema.Schema, buf []byte, ev *schema.Event, brokers int, brocli, delivered subid.Mask) (*schema.Event, subid.Mask, subid.Mask, uint64, error) {
	traceID, n0, err := decodeMsgHeader(buf)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	buf = buf[n0:]
	brocli, n1, err := decodeMask(brocli, buf, brokers)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	delivered, n2, err := decodeMask(delivered, buf[n1:], brokers)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	used := 0
	if ev != nil {
		used = schema.EncodedEventSize(ev)
	} else if ev, used, err = schema.DecodeEvent(s, buf[n1+n2:]); err != nil {
		return nil, nil, nil, 0, err
	}
	if n1+n2+used != len(buf) {
		return nil, nil, nil, 0, fmt.Errorf("core: %d bytes after the event", len(buf)-n1-n2-used)
	}
	return ev, brocli, delivered, traceID, nil
}

// isTraced reports whether an event/deliver payload carries a trace id,
// from the flags byte alone.
func isTraced(payload []byte) bool {
	return len(payload) > 0 && payload[0]&msgFlagTrace != 0
}

// An owner-delivery payload is one or more records, one per event of the
// sender's run that matched this owner:
//
//	record: message header, n:uvarint (≥ 1), n local ids (c2) as strictly
//	        ascending delta-uvarints — the first absolute —, packed event
//
// The ids are the owner's subscriptions the sender's Algorithm 1 pass
// matched: the candidates the owner exact-matches, instead of running the
// pass again over its whole merged view.

// deliverRecord is one decoded record: the event and its named ids as the
// keys[lo:hi] range of the slice decodeDeliverMsg filled beside it.
type deliverRecord struct {
	ev     *schema.Event
	lo, hi int
}

// appendDeliverHead appends a record's header and id list to buf; the
// packed event follows. keys are ascending id keys of a single owner; only
// their local halves travel.
func appendDeliverHead(buf []byte, traceID uint64, keys []uint64) []byte {
	buf = appendMsgHeader(buf, traceID)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := subid.LocalID(0)
	for _, key := range keys {
		_, local := subid.KeyParts(key)
		buf = binary.AppendUvarint(buf, uint64(local-prev))
		prev = local
	}
	return buf
}

// decodeDeliverRecord decodes the record at the head of buf, appending
// its ids to keys as id keys of owner, and returns the bytes consumed. A
// non-nil ev is the record's event as the sender attached it: its bytes
// are stepped over, not parsed, and must lie inside buf.
func decodeDeliverRecord(s *schema.Schema, buf []byte, ev *schema.Event, owner subid.BrokerID, keys []uint64) (_ *schema.Event, _ []uint64, traceID uint64, n int, err error) {
	traceID, n, err = decodeMsgHeader(buf)
	if err != nil {
		return nil, keys, 0, 0, err
	}
	count, used := canonicalUvarint(buf[n:])
	n += used
	// Every id takes at least a byte, which bounds what a hostile count
	// can make the key slice grow to.
	if used == 0 || count == 0 || count > uint64(len(buf)-n) {
		return nil, keys, 0, 0, fmt.Errorf("core: bad deliver id count")
	}
	local := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, used := canonicalUvarint(buf[n:])
		n += used
		local += delta
		if used == 0 || (delta == 0 && i > 0) || delta > math.MaxUint32 || local > math.MaxUint32 {
			return nil, keys, 0, 0, fmt.Errorf("core: bad deliver id list")
		}
		keys = append(keys, subid.ID{Broker: owner, Local: subid.LocalID(local)}.Key())
	}
	if ev == nil {
		ev, used, err = schema.DecodeEvent(s, buf[n:])
	} else if used = schema.EncodedEventSize(ev); used > len(buf)-n {
		err = fmt.Errorf("core: attached event of %d bytes, %d left", used, len(buf)-n)
	}
	if err != nil {
		return nil, keys, 0, 0, err
	}
	return ev, keys, traceID, n + used, nil
}

// decodeDeliverMsg decodes an owner-delivery payload into recs and keys
// (pass scratch to reuse it); att holds the events the sender attached, one
// per record in record order, or nothing. The trace id returned is the
// first record's: a traced event travels alone. A decode error anywhere
// discards the whole payload (the caller records it), matching the
// lost-message semantics of any corrupt message; so does an empty payload.
func decodeDeliverMsg(s *schema.Schema, buf []byte, att []any, owner subid.BrokerID, recs []deliverRecord, keys []uint64) (_ []deliverRecord, _ []uint64, traceID uint64, err error) {
	if len(buf) == 0 {
		return recs, keys, 0, fmt.Errorf("core: empty deliver payload")
	}
	for i := 0; len(buf) > 0; i++ {
		lo := len(keys)
		ev, ks, id, n, err := decodeDeliverRecord(s, buf, carried(att, i), owner, keys)
		if err != nil {
			return recs, keys, 0, err
		}
		if i == 0 {
			traceID = id
		}
		keys = ks
		recs = append(recs, deliverRecord{ev: ev, lo: lo, hi: len(keys)})
		buf = buf[n:]
	}
	return recs, keys, traceID, nil
}

// canonicalUvarint reads a uvarint in its shortest form and returns the
// bytes consumed, 0 for a truncated, overlong or padded one — so a payload
// that decodes has exactly one encoding.
func canonicalUvarint(buf []byte) (uint64, int) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || (n > 1 && buf[n-1] == 0) {
		return 0, 0
	}
	return v, n
}

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
// algorithms running asynchronously, with per-kind byte accounting of
// every message. A summary message travels as its wire form, which the
// receiver folds in (MergeEncoded); event and deliver messages travel as
// values inside the process and are counted at the size their wire forms
// would have (eventMsgSize, deliverMsgSize).
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
// that cannot be processed (undecodable summary, a body of the wrong type,
// rejected merge) is counted on the bus rather than silently discarded.
package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
	order    *routing.Order

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

	watchdog *Watchdog // nil until StartWatchdog
}

// runScratch is one broker handler's reusable working set for a run of
// events: the event messages, their events and whether each was forwarded
// here (rather than published here), and the remote deliver
// records the run owes, chained per owner in event order. A record names
// its event and the owner's ids in that event's match result
// (res[ev][lo:hi]). heads[o] and tails[o] are owner o's first and last
// record, meaningful only while owners holds o; drainOwners visits the
// owners in ascending order and leaves every chain empty. hits holds an
// exact pass's matches. Everything grows on demand — the owner-indexed
// slices to the highest owner a run sends to — so a broker that routes
// short runs holds little.
type runScratch struct {
	walks        []*eventMsg
	events       []*schema.Event
	forwarded    []bool
	sends        []deliverSend
	owners       subid.Mask
	heads, tails []int32
	hits         broker.Hits
}

// deliverSend is one remote deliver record of a run, a link of its
// owner's chain.
type deliverSend struct {
	ev, lo, hi int32 // the event's index in the run and its ids res[ev][lo:hi]
	next       int32 // the owner's next record, -1 at the chain's end
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
	net.order = routing.NewOrder(cfg.Topology)
	net.scratch = make([]runScratch, n)
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

// Stats returns the bus accounting: per kind, messages and the bytes
// their wire forms take (a summary's encoded bytes; an event's or a
// delivery's, the length its values encode to), plus drop, decode-error and
// handler-error counters.
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

	// payloads[i] is the round's i-th message, every one encoded before any
	// is sent: a receiver folds what it gets into its own period summary,
	// which its own send of the round must not carry yet.
	var payloads [][]byte
	for _, round := range net.schedule {
		payloads = payloads[:0]
		for _, h := range round.Sends {
			period.mu.Lock()
			p, err := encodeSummaryMsg(nil, period.sums[h.From], period.sets[h.From], uint64(net.periods), fullSync)
			period.mu.Unlock()
			if err != nil {
				return hops, fmt.Errorf("core: broker %d summary: %w", h.From, err)
			}
			payloads = append(payloads, p)
		}
		for i, h := range round.Sends {
			// Propagate runs outside every handler: its sends must not take
			// the hand-off slot of a worker running h.From.
			err := net.bus.Post(netsim.Message{
				From: h.From, To: h.To, Kind: netsim.KindSummary, Body: payloads[i], Size: len(payloads[i]),
			})
			if err != nil {
				return hops, err
			}
			hops++
			periodBytes += int64(len(payloads[i]))
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
// Every broker and every consumer it reaches is handed the caller's own
// event, concurrently, so it must not be modified after Publish. When
// trace sampling is on (SetTraceSampling), every Nth publish carries a
// trace context recording its hop-by-hop walk; with sampling off the only
// cost here is one atomic load.
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
	m := newEventMsg(ev, len(net.brokers), traceID)
	if err := net.bus.Send(netsim.Message{From: at, To: at, Kind: netsim.KindEvent, Body: m, Size: eventMsgSize(m)}); err != nil {
		m.recycle()
		return err
	}
	net.obs.eventsPublished.Inc()
	return nil
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
			if !traced(msgs[i]) {
				for j < len(msgs) && msgs[j].Kind == netsim.KindEvent && !traced(msgs[j]) {
					j++
				}
			}
			net.routeRun(node, msgs[i:j])
		}
		i = j
	}
}

// traced reports whether m is the message of a traced event.
func traced(m netsim.Message) bool {
	em, _ := m.Body.(*eventMsg)
	return em != nil && em.traceID != 0
}

// handleDeliver exact-matches the subscriptions an owner delivery names
// and notifies their consumers. The delivery holds one record per event of
// the sender's run that matched this owner; a traced one always holds one.
// No summary is matched here: the sender's match already named the
// candidates, and the broker looks each one up in its current raw
// subscriptions.
func (net *Network) handleDeliver(node topology.NodeID, m netsim.Message) {
	dm, _ := m.Body.(*deliverMsg)
	if dm == nil {
		net.bus.RecordDecodeErrorAt(netsim.KindDeliver, node)
		return
	}
	sc := &net.scratch[node]
	hits := 0
	for _, r := range dm.recs {
		hits += net.brokers[node].DeliverExactCandidates(r.ev, dm.keys[r.lo:r.hi], &sc.hits)
	}
	if dm.traceID != 0 {
		net.tracer.addBytes(dm.traceID, m.Size)
		net.tracer.hop(dm.traceID, node, deliveryDecision(hits), hits, m.Size)
	}
	dm.recycle()
}

// deliveryDecision names the outcome of an exact re-match for a trace.
func deliveryDecision(hits int) string {
	if hits == 0 {
		return DecisionFalsePositive
	}
	return DecisionDelivered
}

func (net *Network) handleSummary(node topology.NodeID, m netsim.Message) {
	// The body is the message's wire form (any other body decodes as no
	// bytes): an epoch header, a Merged_Brokers mask, then a wire-form
	// summary. Mask and summary fold in directly, so no intermediate
	// Summary is materialized.
	payload, _ := m.Body.([]byte)
	h, n0, err := decodeSummaryHeader(payload)
	if err != nil {
		net.bus.RecordDecodeErrorAt(netsim.KindSummary, node)
		return
	}
	set, off, err := decodeMask(payload[n0:], len(net.brokers))
	if err != nil {
		net.bus.RecordDecodeErrorAt(netsim.KindSummary, node)
		return
	}
	sumWire := payload[n0+off:]
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
		em, _ := m.Body.(*eventMsg)
		if em == nil {
			net.bus.RecordDecodeErrorAt(netsim.KindEvent, node)
			continue
		}
		traceID = em.traceID
		sc.walks = append(sc.walks, em)
		sc.events = append(sc.events, em.ev)
		sc.forwarded = append(sc.forwarded, m.From != node) // Publish sends from the broker to itself
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
		net.tracer.visit(traceID, node, msgs[0].Size)
	}
	b := net.brokers[node]
	// Step 1: match the local merged summary.
	lease := b.AcquireMatcher()
	start := time.Now()
	res := lease.MatchBatch(sc.events)
	b.ObserveMatchRun(time.Since(start), k)
	shared := lease.MergedBrokers()
	matched := len(res[0]) // reported by trace hops only
	for i, w := range sc.walks {
		// Step 2: update BROCLIe.
		orMask(&w.brocli, shared)
		// Step 3: hand the event to each newly matched owner, with the ids
		// that matched it — keys ascend, so an owner's are contiguous. Only
		// a corrupt peer summary names an owner beyond the overlay; there is
		// no broker to hand it to.
		keys := res[i]
		for lo, hi := 0, 0; lo < len(keys); lo = hi {
			hi = ownerRunEnd(keys, lo)
			owner := int(keys[lo] >> 32)
			if owner >= len(net.brokers) || w.delivered.Has(owner) {
				continue
			}
			w.delivered.Set(owner)
			if topology.NodeID(owner) != node {
				sc.chain(owner, i, lo, hi)
				continue
			}
			hits := b.DeliverExactCandidates(w.ev, keys[lo:hi], &sc.hits)
			if traceID != 0 {
				net.tracer.hop(traceID, node, deliveryDecision(hits), matched, 0)
			}
		}
	}
	// The deliver records copy their ids out of the match result, so the
	// lease is held until they are sent.
	net.sendDelivers(node, sc, res, traceID)
	lease.Release()
	// Step 4: forward while BROCLIe is incomplete. Every routed event ends
	// in exactly one terminal counter — forwarded, suppressed, or handler
	// error — which is the flow-conservation invariant the watchdog checks.
	for i, w := range sc.walks {
		if w.brocli.Count() < len(net.brokers) {
			net.forwardEvent(node, w, sc.forwarded[i], matched)
			continue
		}
		net.obs.eventsSuppressed.Inc()
		if traceID != 0 {
			net.tracer.hop(traceID, node, DecisionSuppressed, matched, 0)
		}
		w.recycle()
	}
}

// sendDelivers sends the run's remote deliveries: per owner, in ascending
// owner order, one message holding the owner's chain — a record for every
// event of the run that newly matched it, in event order, with the owner's
// matched ids.
func (net *Network) sendDelivers(node topology.NodeID, sc *runScratch, res [][]uint64, traceID uint64) {
	sc.drainOwners(func(owner int) {
		dm := deliverMsgPool.Get().(*deliverMsg)
		dm.traceID = traceID
		sc.appendChain(dm, res, owner)
		records := len(dm.recs)
		m := netsim.Message{From: node, To: topology.NodeID(owner), Kind: netsim.KindDeliver, Body: dm, Size: deliverMsgSize(dm)}
		if net.bus.Send(m) != nil {
			dm.recycle()
			return
		}
		net.obs.deliverSends.Add(int64(records))
	})
}

// startRun empties the run's messages and events.
func (sc *runScratch) startRun() {
	sc.walks, sc.events, sc.forwarded = sc.walks[:0], sc.events[:0], sc.forwarded[:0]
}

// chain adds a deliver record for event ev of the run to the end of
// owner's chain, naming the ids res[ev][lo:hi].
func (sc *runScratch) chain(owner, ev, lo, hi int) {
	if owner >= len(sc.heads) {
		grow := owner + 1 - len(sc.heads)
		sc.heads = append(sc.heads, make([]int32, grow)...)
		sc.tails = append(sc.tails, make([]int32, grow)...)
	}
	r := int32(len(sc.sends))
	sc.sends = append(sc.sends, deliverSend{ev: int32(ev), lo: int32(lo), hi: int32(hi), next: -1})
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

// appendChain appends owner's chain to dm's records, copying each
// record's ids out of the match result.
func (sc *runScratch) appendChain(dm *deliverMsg, res [][]uint64, owner int) {
	for r := sc.heads[owner]; r >= 0; r = sc.sends[r].next {
		s := sc.sends[r]
		lo := len(dm.keys)
		dm.keys = append(dm.keys, res[s.ev][s.lo:s.hi]...)
		dm.recs = append(dm.recs, deliverRecord{ev: sc.events[s.ev], lo: lo, hi: len(dm.keys)})
	}
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

// forwardEvent sends the event's message on to the first broker of the
// examination order outside its BROCLIe, ending the hop in exactly one
// terminal counter (forwarded or handler error). forwarded says the event
// reached node by a forward, which lets the scan resume at node's rank
// (routing.Order.NextHop).
func (net *Network) forwardEvent(node topology.NodeID, w *eventMsg, forwarded bool, matchedLen int) {
	next, ok := net.order.NextHop(node, forwarded, w.brocli)
	if !ok {
		return // not reached: the caller forwards only while BROCLIe is incomplete
	}
	traceID, size := w.traceID, eventMsgSize(w) // w is the next broker's once sent
	if net.bus.Send(netsim.Message{From: node, To: next, Kind: netsim.KindEvent, Body: w, Size: size}) != nil {
		// A failed forward send (bus closing) still terminates this
		// event's walk; count it so flow conservation holds.
		net.bus.RecordHandlerError(netsim.KindEvent)
		w.recycle()
		return
	}
	net.obs.eventsForwarded.Inc()
	if traceID != 0 {
		net.tracer.hop(traceID, node, DecisionForwarded, matchedLen, size)
	}
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

// decodeMask reads a mask of broker ids and returns it with the bytes
// consumed. Any word count is accepted, a set bit at or beyond the broker
// count is not: no encoder here writes one, and taken at face value it
// would sit in a Merged_Brokers set for good and, through the BROCLI sets
// built from it, count towards a complete BROCLI — ending a walk before
// every broker was examined.
func decodeMask(buf []byte, brokers int) (subid.Mask, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("core: short mask")
	}
	words := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < 2+8*words {
		return nil, 0, fmt.Errorf("core: truncated mask")
	}
	m := make(subid.Mask, words)
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
// the consumed length. Unknown flag bits are a decode error: old payloads
// must fail loudly, not merge wrongly. The epoch must be in its shortest
// form, so a header that decodes has exactly one encoding.
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

// Event and deliver messages travel as values (eventMsg, deliverMsg) and
// are counted at the length of a wire form that nothing in this process
// writes:
//
//	header:  flags byte (bit 0: traced), then a traced message's trace id
//	         (u64, little-endian)
//	mask:    word count (u16, little-endian), then the words (u64 each)
//	event:   header, BROCLI mask, delivered mask, packed event
//	deliver: one record per event: header, n:uvarint (≥ 1), n local ids
//	         (c2) as strictly ascending delta-uvarints — the first
//	         absolute —, packed event
//
// where a packed event is schema.EncodeEvent's form.

// eventMsg is a routed event's message: the event, its BROCLI and
// delivered sets, and the trace id of a sampled event (0 for none). One
// value travels the whole walk: each hop updates it in place and sends it
// on, and the hop that ends the walk recycles it.
type eventMsg struct {
	ev                *schema.Event
	brocli, delivered subid.Mask
	traceID           uint64
}

var eventMsgPool = sync.Pool{New: func() any { return new(eventMsg) }}

// newEventMsg returns a pooled message for ev with empty sets sized for n
// brokers.
func newEventMsg(ev *schema.Event, n int, traceID uint64) *eventMsg {
	m := eventMsgPool.Get().(*eventMsg)
	m.ev, m.traceID = ev, traceID
	m.brocli = m.brocli.Reset(n)
	m.delivered = m.delivered.Reset(n)
	return m
}

// recycle returns m to the pool; nothing may use it afterwards.
func (m *eventMsg) recycle() {
	m.ev = nil
	eventMsgPool.Put(m)
}

// eventMsgSize is the length of m's wire form.
func eventMsgSize(m *eventMsg) int {
	return headerSize(m.traceID) + maskSize(m.brocli) + maskSize(m.delivered) + schema.EncodedEventSize(m.ev)
}

// deliverMsg is an owner delivery: a record for every event of the
// sender's run that matched the owner, in event order, naming the owner's
// ids the sender's Algorithm 1 pass matched — the candidates the owner
// exact-matches, instead of running the pass again over its whole merged
// view. The receiver recycles it.
type deliverMsg struct {
	traceID uint64 // a traced event travels alone: one record
	recs    []deliverRecord
	keys    []uint64 // the records' ascending id keys
}

// deliverRecord is one record of a deliverMsg: the event and its ids,
// keys[lo:hi] of the message.
type deliverRecord struct {
	ev     *schema.Event
	lo, hi int
}

// deliverMsgPool makes messages with room for a record per event of a
// full run (a bus run drains at most 64 messages) and four ids a record,
// so that one made at a new peak of deliveries in flight seldom grows.
var deliverMsgPool = sync.Pool{New: func() any {
	return &deliverMsg{recs: make([]deliverRecord, 0, 64), keys: make([]uint64, 0, 4*64)}
}}

// recycle empties d and returns it to the pool; nothing may use it
// afterwards.
func (d *deliverMsg) recycle() {
	clear(d.recs)
	d.recs, d.keys = d.recs[:0], d.keys[:0]
	deliverMsgPool.Put(d)
}

// deliverMsgSize is the length of d's wire form: only the local halves
// of its ids travel.
func deliverMsgSize(d *deliverMsg) int {
	n := 0
	for _, r := range d.recs {
		n += headerSize(d.traceID) + uvarintSize(uint64(r.hi-r.lo)) + schema.EncodedEventSize(r.ev)
		prev := subid.LocalID(0)
		for _, key := range d.keys[r.lo:r.hi] {
			_, local := subid.KeyParts(key)
			n += uvarintSize(uint64(local - prev))
			prev = local
		}
	}
	return n
}

// headerSize is the length of an event or deliver record header.
func headerSize(traceID uint64) int {
	if traceID == 0 {
		return 1
	}
	return 9
}

// maskSize is the length of m's wire form.
func maskSize(m subid.Mask) int { return 2 + 8*len(m) }

// uvarintSize is the length of x as a uvarint.
func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

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

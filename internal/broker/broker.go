// Package broker implements a single broker node of the live engine: the
// raw subscription store with exact matching (consumers are attached
// here), the broker's own summary delta for the next propagation period,
// and the multi-broker merged summary plus Merged_Brokers set maintained
// by Algorithm 2.
//
// The summary structures are the lossy pre-filter used for routing; before
// notifying a consumer, the owning broker re-matches the event against the
// raw subscription, so consumers never receive spurious events.
package broker

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// DeliveryFunc is invoked for every event matching a subscription, inside
// the owning broker's handler, on whichever bus worker runs it. It must
// not call back into the Broker and must not block: the bus has a fixed
// set of workers, so a delivery that waits on its consumer stalls brokers
// that have nothing to do with that consumer. A consumer that can fall
// behind queues or sheds at its own edge (the wire server does both). The
// event is shared and read-only: in-process, the live engine hands the
// publisher's own event — the value Publish was given — to every broker
// and every consumer it reaches, concurrently. It may be kept, and must
// not be modified (Event.Fields says the same of its slice).
type DeliveryFunc func(id subid.ID, ev *schema.Event)

// subEntry is one raw subscription with its consumer.
type subEntry struct {
	id      subid.ID
	sub     *schema.Subscription
	deliver DeliveryFunc
	// propagated is set once the subscription's rows have left this broker
	// (drained into a period delta, or shipped whole in a full sync).
	// Unsubscribing a propagated subscription must queue a retraction;
	// unsubscribing an unpropagated one is purely local.
	propagated bool
}

// Broker is one node's state. All methods are safe for concurrent use.
type Broker struct {
	id     topology.NodeID
	schema *schema.Schema
	mode   interval.Mode

	mu            sync.Mutex
	subs          map[subid.LocalID]*subEntry
	nextLocal     subid.LocalID
	maxLocal      subid.LocalID
	delta         *summary.Summary // new subscriptions since the last TakePeriodSummary
	merged        *summary.Summary // own + received (multi-broker summary)
	mergedBrokers subid.Mask       // Merged_Brokers

	// The lock-free read paths (RCU-style). matchGen counts merged-summary
	// mutations and ownerGen counts changes to the set of subs: every
	// mutator bumps the counters it affects under b.mu. snap publishes an
	// immutable snapshot of the matcher state (the compiled view of merged —
	// summary.View — plus a cloned Merged_Brokers mask) and owners one of
	// subs for the owner's exact pass, each stamped with the generation it
	// was built from. Readers load them with one atomic load; when the
	// generation is stale they rebuild under b.mu (double-checked) and
	// swap. Matching and the exact pass therefore never block behind a
	// concurrent Subscribe/MergeEncodedSummary, mutators never wait for
	// readers, and a peer's summary merge leaves the owner table current.
	matchGen   atomic.Uint64
	snap       atomic.Pointer[matchSnapshot]
	ownerGen   atomic.Uint64
	owners     atomic.Pointer[ownerTable]
	numBrokers int
	// retired fences local ids whose retraction is still in flight: reusing
	// the id before every remote merged summary has dropped the old rows
	// would attach stale coverage to the new subscription. The fence lifts
	// when a full-sync period completes (FinishFullSync), because the
	// resync rebuilds all remote state from live subscriptions only.
	retired map[subid.LocalID]struct{}
	// syncing holds the ids that were already fenced when the current
	// full-sync payload was taken; only their fences lift at
	// FinishFullSync — an id retired mid-period was in that payload and
	// must stay fenced until the next sync.
	syncing     []subid.LocalID
	removals    int              // merged-summary removals since the last compact
	compactions int64            // amortized compactions performed
	obs         *brokerObs       // nil unless Config.Metrics was set
	rec         *flight.Recorder // nil unless Config.Flight was set
	attrib      *FPAttributor    // nil unless Config.Attribution was set

	// Convergence epoch vector (under b.mu): peerEpochs[p] is the highest
	// epoch of any successfully applied summary payload whose
	// Merged_Brokers set claimed coverage of peer p (-1 = never seen).
	// lastFullSyncEpoch / lastRetractEpoch are the highest applied epochs
	// of full-sync and retraction-carrying payloads respectively. Together
	// they answer "how stale is this broker's view of peer p, in periods"
	// without any extra wire traffic beyond the payload epoch stamp.
	peerEpochs        []int64
	lastFullSyncEpoch int64
	lastRetractEpoch  int64
}

// EpochInfo is the decoded convergence stamp of one summary payload:
// the sender's period number plus the payload-class flags. Epoch <= 0
// means the payload carried no stamp (hand-built merges, tests) and
// leaves the epoch vector untouched.
type EpochInfo struct {
	Epoch    int64
	FullSync bool
	Retract  bool
}

// brokerObs holds this broker's registry instruments, resolved once at
// New under "name{broker}" labels. The histogram times merged-summary
// matching; everything else is counter/gauge updates on paths already
// holding b.mu.
type brokerObs struct {
	matchSeconds   *metrics.Histogram // MatchMerged latency
	deliveries     *metrics.Counter   // exact consumer deliveries
	falsePositives *metrics.Counter   // events reaching exact match with 0 hits
	summaryMerges  *metrics.Counter   // received summaries folded in
	subscriptions  *metrics.Gauge     // own raw subscriptions
	mergedSubs     *metrics.Gauge     // subscriptions visible in the merged summary
}

// newBrokerObs wires the per-broker instrument family.
func newBrokerObs(r *metrics.Registry, id topology.NodeID) *brokerObs {
	label := strconv.Itoa(int(id))
	return &brokerObs{
		matchSeconds:   r.HistogramVec("broker_match_seconds", metrics.DefLatencyBuckets).With(label),
		deliveries:     r.CounterVec("broker_deliveries").With(label),
		falsePositives: r.CounterVec("broker_false_positives").With(label),
		summaryMerges:  r.CounterVec("broker_summary_merges").With(label),
		subscriptions:  r.GaugeVec("broker_subscriptions").With(label),
		mergedSubs:     r.GaugeVec("broker_merged_subs").With(label),
	}
}

// Config parametrizes a broker.
type Config struct {
	ID         topology.NodeID
	Schema     *schema.Schema
	Mode       interval.Mode
	NumBrokers int
	// MaxSubscriptions bounds c2 (0 means no bound).
	MaxSubscriptions int
	// Metrics, when non-nil, wires this broker's match latency
	// histogram, delivery and false-positive counters, and subscription
	// gauges into the registry under "name{broker-id}" labels. Nil keeps
	// the broker entirely uninstrumented (the pre-observability behavior).
	Metrics *metrics.Registry
	// Flight, when non-nil, journals subscription churn and wire-form merge
	// outcomes into the flight recorder. Nil (and the Recorder's own
	// nil-receiver tolerance) keeps the hot paths branch-cheap.
	Flight *flight.Recorder
	// Attribution, when non-nil, receives false-positive attributions
	// (which attribute/operator-class/owner admitted an event that no raw
	// subscription matched) and per-attribute delivery credits. Shared
	// across brokers — the network owns one attributor. Nil costs one
	// branch on the delivery paths.
	Attribution *FPAttributor
}

// New creates an empty broker.
func New(cfg Config) (*Broker, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("broker: nil schema")
	}
	if cfg.NumBrokers < 1 || int(cfg.ID) >= cfg.NumBrokers {
		return nil, fmt.Errorf("broker: id %d out of range (%d brokers)", cfg.ID, cfg.NumBrokers)
	}
	maxLocal := subid.LocalID(^uint32(0))
	if cfg.MaxSubscriptions > 0 {
		maxLocal = subid.LocalID(cfg.MaxSubscriptions - 1)
	}
	b := &Broker{
		id:            cfg.ID,
		schema:        cfg.Schema,
		mode:          cfg.Mode,
		subs:          make(map[subid.LocalID]*subEntry),
		maxLocal:      maxLocal,
		delta:         summary.New(cfg.Schema, cfg.Mode),
		merged:        summary.New(cfg.Schema, cfg.Mode),
		mergedBrokers: subid.NewMask(cfg.NumBrokers),
		numBrokers:    cfg.NumBrokers,
		retired:       make(map[subid.LocalID]struct{}),
		rec:           cfg.Flight,
		attrib:        cfg.Attribution,

		peerEpochs:        newEpochVector(cfg.NumBrokers),
		lastFullSyncEpoch: -1,
		lastRetractEpoch:  -1,
	}
	b.mergedBrokers.Set(int(cfg.ID))
	if cfg.Metrics != nil {
		b.obs = newBrokerObs(cfg.Metrics, cfg.ID)
	}
	return b, nil
}

// matchSnapshot is one published generation of the match read path: the
// merged summary compiled into one summary.View, a pool of matchers over
// it leasing private scratch to concurrent readers, and the Merged_Brokers
// set as of the same generation. Immutable once stored in b.snap.
type matchSnapshot struct {
	gen     uint64
	pool    sync.Pool  // *summary.Matcher bound to the generation's view
	brokers subid.Mask // read-only: callers must clone before mutating
}

// invalidateMatch retires the published snapshot; the next match rebuilds
// it from the current merged state. Callers hold b.mu.
func (b *Broker) invalidateMatch() { b.matchGen.Add(1) }

// matchSnapshot returns the current-generation snapshot, rebuilding it
// (under b.mu, double-checked) when a mutator has retired the published
// one. The steady-state path — no mutation since the last rebuild — is
// two atomic loads and no lock.
func (b *Broker) matchSnapshot() *matchSnapshot {
	if s := b.snap.Load(); s != nil && s.gen == b.matchGen.Load() {
		return s
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.matchGen.Load()
	if s := b.snap.Load(); s != nil && s.gen == gen {
		return s
	}
	view := b.merged.Compile()
	s := &matchSnapshot{gen: gen, brokers: b.mergedBrokers.Clone()}
	s.pool.New = func() any { return view.NewMatcher() }
	b.snap.Store(s)
	return s
}

// ownerTable is one published generation of subs, read by the owner's
// exact pass without b.mu: a clone of the map, so its size follows the
// live subscriptions and not the highest local id ever issued. It shares
// the entries of subs, whose id, sub and deliver never change once
// registered, and copies no constraints. Immutable once stored in
// b.owners.
type ownerTable struct {
	gen  uint64
	subs map[subid.LocalID]*subEntry
}

// invalidateOwners retires the published owner table; callers hold b.mu
// and have just added a subscription to subs or removed one.
func (b *Broker) invalidateOwners() { b.ownerGen.Add(1) }

// ownerSnapshot returns the current owner table, rebuilding it from subs
// if a mutation retired the published one.
func (b *Broker) ownerSnapshot() *ownerTable {
	if t := b.owners.Load(); t != nil && t.gen == b.ownerGen.Load() {
		return t
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.ownerGen.Load()
	if t := b.owners.Load(); t != nil && t.gen == gen {
		return t
	}
	t := &ownerTable{gen: gen, subs: maps.Clone(b.subs)}
	b.owners.Store(t)
	return t
}

// ID returns the broker's overlay node id.
func (b *Broker) ID() topology.NodeID { return b.id }

// Subscribe registers a consumer subscription, assigns it the next local
// id, and folds it into both the delta (for the next propagation period)
// and the local merged summary.
func (b *Broker) Subscribe(sub *schema.Subscription, deliver DeliveryFunc) (subid.ID, error) {
	if sub == nil || deliver == nil {
		return subid.ID{}, fmt.Errorf("broker: nil subscription or delivery func")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nextLocal > b.maxLocal {
		return subid.ID{}, fmt.Errorf("broker %d: subscription id space exhausted (c2)", b.id)
	}
	id := subid.ID{Broker: subid.BrokerID(b.id), Local: b.nextLocal, Attrs: b.maskOf(sub)}
	if err := b.delta.Insert(id, sub); err != nil {
		return subid.ID{}, err
	}
	if err := b.merged.Insert(id, sub); err != nil {
		return subid.ID{}, fmt.Errorf("broker %d: delta/merged diverged: %w", b.id, err)
	}
	b.nextLocal++
	b.subs[id.Local] = &subEntry{id: id, sub: sub, deliver: deliver}
	b.invalidateMatch()
	b.invalidateOwners()
	b.updateSubGauges()
	b.rec.Record(flight.EvSubscribe, int(b.id), int64(id.Local), int64(id.Attrs.Count()), 0, "")
	return id, nil
}

// maskOf returns the c3 mask of sub: the attributes it constrains.
func (b *Broker) maskOf(sub *schema.Subscription) subid.Mask {
	m := subid.NewMask(b.schema.Len())
	for _, a := range sub.AttrSet() {
		m.Set(int(a))
	}
	return m
}

// updateSubGauges refreshes the subscription-level gauges; callers hold
// b.mu.
func (b *Broker) updateSubGauges() {
	if b.obs == nil {
		return
	}
	b.obs.subscriptions.Set(int64(len(b.subs)))
	b.obs.mergedSubs.Set(int64(b.merged.NumSubscriptions()))
}

// RawSub exposes one owned subscription for snapshotting.
type RawSub struct {
	Local subid.LocalID
	Sub   *schema.Subscription
}

// SnapshotSubscriptions returns the broker's raw subscriptions sorted by
// local id (the durable state a snapshot persists; summaries are derived).
func (b *Broker) SnapshotSubscriptions() []RawSub {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]RawSub, 0, len(b.subs))
	for local, e := range b.subs {
		out = append(out, RawSub{Local: local, Sub: e.sub})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Local < out[j].Local })
	return out
}

// Restore re-registers a subscription under its original local id (used
// when loading a snapshot). The id must not be in use; nextLocal advances
// past it so future Subscribe calls never collide.
func (b *Broker) Restore(local subid.LocalID, sub *schema.Subscription, deliver DeliveryFunc) error {
	if sub == nil || deliver == nil {
		return fmt.Errorf("broker: nil subscription or delivery func")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[local]; ok {
		return fmt.Errorf("broker %d: local id %d already in use", b.id, local)
	}
	if _, fenced := b.retired[local]; fenced {
		// The previous holder of this id was unsubscribed after its rows
		// propagated; until a full sync confirms the retraction reached the
		// whole network, a new subscription under the same id would inherit
		// the dead subscription's remote coverage.
		return fmt.Errorf("broker %d: local id %d is fenced pending network-wide retraction (full sync)", b.id, local)
	}
	if local > b.maxLocal {
		return fmt.Errorf("broker %d: local id %d exceeds c2 capacity", b.id, local)
	}
	id := subid.ID{Broker: subid.BrokerID(b.id), Local: local, Attrs: b.maskOf(sub)}
	if err := b.delta.Insert(id, sub); err != nil {
		return err
	}
	if err := b.merged.Insert(id, sub); err != nil {
		return fmt.Errorf("broker %d: delta/merged diverged: %w", b.id, err)
	}
	if local >= b.nextLocal {
		b.nextLocal = local + 1
	}
	b.subs[local] = &subEntry{id: id, sub: sub, deliver: deliver}
	b.invalidateMatch()
	b.invalidateOwners()
	b.updateSubGauges()
	return nil
}

// Unsubscribe removes a subscription. If its rows already propagated, a
// retraction is queued in the delta (shipped next period) so remote
// merged summaries shrink, and the local id is fenced against reuse until
// the next full sync; an unpropagated subscription is removed purely
// locally.
func (b *Broker) Unsubscribe(id subid.ID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.subs[id.Local]
	if !ok || subid.BrokerID(b.id) != id.Broker {
		return fmt.Errorf("broker %d: unknown subscription %v", b.id, id)
	}
	delete(b.subs, id.Local)
	b.invalidateOwners()
	if e.propagated {
		// Remote summaries hold this id: queue a retraction (which also
		// drops any rows still pending in the delta) and fence the local id.
		b.delta.AddRetraction(id.Key())
		b.retired[id.Local] = struct{}{}
		b.rec.Record(flight.EvRetract, int(b.id), int64(id.Local), 0, 0, "")
	} else {
		b.delta.Remove(id)
	}
	b.merged.Remove(id)
	b.maybeCompact()
	b.invalidateMatch()
	b.updateSubGauges()
	b.rec.Record(flight.EvUnsubscribe, int(b.id), int64(id.Local), 0, 0, "")
	return nil
}

// compactMinRemovals floors the amortized-compaction trigger so small
// summaries still defragment promptly.
const compactMinRemovals = 32

// maybeCompact amortizes merged-summary defragmentation. Compact is
// linear in rows, so compacting on every removal made n unsubscribes
// quadratic; compacting once every max(32, live/8) removals bounds
// fragmentation at ~12% while keeping the amortized cost per removal
// constant. Callers hold b.mu.
func (b *Broker) maybeCompact() {
	b.removals++
	threshold := b.merged.NumSubscriptions() / 8
	if threshold < compactMinRemovals {
		threshold = compactMinRemovals
	}
	if b.removals < threshold {
		return
	}
	b.merged.Compact()
	b.compactions++
	b.removals = 0
}

// NumSubscriptions returns the number of locally owned raw subscriptions.
func (b *Broker) NumSubscriptions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// TakePeriodSummary returns the summary this broker should propagate in
// the starting period and drains the delta. In a normal period that is
// the delta itself — subscriptions accumulated since the last period plus
// the retraction set of propagated ids unsubscribed since then. On a
// full-sync period the broker performs a true resync: it rebuilds its
// merged summary from its own raw subscriptions, resets Merged_Brokers to
// itself, and ships that own-subscription summary — the period then
// behaves exactly like the first period of a freshly built network, so
// stale remote rows (including retractions lost to dropped messages) are
// discarded everywhere within the one period.
func (b *Broker) TakePeriodSummary(fullSync bool) *summary.Summary {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.delta
	b.delta = summary.New(b.schema, b.mode)
	if fullSync {
		b.syncing = b.syncing[:0]
		for local := range b.retired {
			b.syncing = append(b.syncing, local)
		}
		m := summary.New(b.schema, b.mode)
		for _, e := range b.subs {
			if err := m.Insert(e.id, e.sub); err != nil {
				continue // cannot happen: ids in b.subs are unique
			}
			e.propagated = true
		}
		b.merged = m
		b.mergedBrokers = subid.NewMask(b.numBrokers)
		b.mergedBrokers.Set(int(b.id))
		b.removals = 0
		b.invalidateMatch()
		b.updateSubGauges()
		return m.Clone()
	}
	// Subscribe and Restore put every subscription into the delta, so each
	// live one has now left this broker.
	for _, e := range b.subs {
		e.propagated = true
	}
	return d
}

// FinishFullSync marks the completion of a full-sync propagation period.
// Every broker has rebuilt its merged state from live subscriptions only,
// so no stale rows survive anywhere for ids that were fenced when the
// sync payload was taken; those ids become safe to reuse. Ids retired
// mid-period stay fenced — their rows were in the sync payload.
func (b *Broker) FinishFullSync() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, local := range b.syncing {
		delete(b.retired, local)
	}
	b.syncing = nil
}

// MergeEncodedSummary folds a received multi-broker summary payload (wire
// form) and its Merged_Brokers set into the broker's merged state. On a
// malformed payload the merged summary may retain a partial merge; that
// is indistinguishable from the message having been lost in transit —
// partially inserted ids can never reach their c3 attribute count, so
// they never match, and the Merged_Brokers bits are applied only after a
// fully successful merge. Coverage loss, never correctness loss.
func (b *Broker) MergeEncodedSummary(payload []byte, brokers subid.Mask) error {
	return b.MergeEncodedSummaryEpoch(payload, brokers, EpochInfo{})
}

// MergeEncodedSummaryEpoch is MergeEncodedSummary with the payload's
// convergence stamp: after a fully successful merge, every peer the
// payload's Merged_Brokers set claims coverage of advances (max-wise) to
// the payload epoch in this broker's epoch vector. A rejected merge
// advances nothing — staleness must reflect applied state, not received
// bytes.
func (b *Broker) MergeEncodedSummaryEpoch(payload []byte, brokers subid.Mask, info EpochInfo) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.merged.MergeEncoded(payload); err != nil {
		b.rec.Record(flight.EvMergeError, int(b.id), int64(len(payload)), 0, 0, err.Error())
		return err
	}
	// The merge already dropped the retracted rows; the long-lived merged
	// summary must not accumulate the retraction sets themselves, or its
	// memory would grow with total churn instead of live subscriptions.
	b.merged.ClearRetractions()
	for _, i := range brokers.Bits() {
		b.mergedBrokers.Set(i)
	}
	if info.Epoch > 0 {
		for _, i := range brokers.Bits() {
			if i < len(b.peerEpochs) && info.Epoch > b.peerEpochs[i] {
				b.peerEpochs[i] = info.Epoch
			}
		}
		if info.FullSync && info.Epoch > b.lastFullSyncEpoch {
			b.lastFullSyncEpoch = info.Epoch
		}
		if info.Retract && info.Epoch > b.lastRetractEpoch {
			b.lastRetractEpoch = info.Epoch
		}
	}
	b.invalidateMatch()
	if b.obs != nil {
		b.obs.summaryMerges.Inc()
		b.updateSubGauges()
	}
	b.rec.Record(flight.EvMergeOK, int(b.id), int64(len(payload)), int64(b.merged.NumSubscriptions()), 0, "")
	return nil
}

// newEpochVector builds an all-unseen (-1) epoch vector.
func newEpochVector(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = -1
	}
	return v
}

// ReadEpochs invokes fn with the live convergence epoch vector under the
// broker lock: peers[p] is the last applied epoch claiming coverage of
// peer p, and lastFullSync / lastRetract are the last applied full-sync
// and retraction-carrying payload epochs (-1 = never, in all three). fn
// must not retain peers or call back into the Broker.
func (b *Broker) ReadEpochs(fn func(peers []int64, lastFullSync, lastRetract int64)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b.peerEpochs, b.lastFullSyncEpoch, b.lastRetractEpoch)
}

// SnapshotMerged returns deep copies of the merged summary and
// Merged_Brokers set (what Algorithm 2 sends to the chosen neighbor).
func (b *Broker) SnapshotMerged() (*summary.Summary, subid.Mask) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.merged.Clone(), b.mergedBrokers.Clone()
}

// MergedBrokers returns a copy of the broker's Merged_Brokers set.
func (b *Broker) MergedBrokers() subid.Mask {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mergedBrokers.Clone()
}

// MatchMerged runs Algorithm 1 on the merged multi-broker summary and
// returns the matched subscription ids (possibly including pre-filter
// false positives, resolved at the owners): the one-event wrapper over a
// match lease. The read path is lock-free — it matches against the
// published snapshot, so concurrent merges and subscribes never stall it
// — and the latency histogram is observed outside any lock.
func (b *Broker) MatchMerged(ev *schema.Event) []subid.ID {
	l := b.AcquireMatcher()
	start := time.Now()
	ids := l.m.Match(ev)
	elapsed := time.Since(start)
	l.Release()
	b.ObserveMatchRun(elapsed, 1)
	return ids
}

// MatchLease is a leased view of the broker's published match snapshot:
// a private matcher plus the Merged_Brokers set of the same generation. It
// lets the routing hot loop match a whole batch of events — and read the
// broker set Algorithm 3 needs — without ever touching b.mu. Release
// returns the matcher scratch to the snapshot's pool; match results are
// valid until then.
type MatchLease struct {
	snap *matchSnapshot
	m    *summary.Matcher
}

// AcquireMatcher leases a matcher over the current snapshot (rebuilding
// the snapshot first if a mutator retired it).
func (b *Broker) AcquireMatcher() MatchLease {
	s := b.matchSnapshot()
	return MatchLease{snap: s, m: s.pool.Get().(*summary.Matcher)}
}

// MergedBrokers returns the Merged_Brokers set of the leased generation.
// Read-only: callers must not mutate the mask.
func (l MatchLease) MergedBrokers() subid.Mask { return l.snap.brokers }

// MatchBatch matches events and returns per-event matched id keys
// (ascending; decompose with subid.KeyParts). Results are matcher
// scratch, valid until the next call or Release.
func (l MatchLease) MatchBatch(events []*schema.Event) [][]uint64 {
	return l.m.MatchBatch(events)
}

// Release returns the leased matcher to its snapshot's pool.
func (l MatchLease) Release() { l.snap.pool.Put(l.m) }

// ObserveMatchRun records the match latency of a run of `events` events
// that took `elapsed` in all: the mean, once per event in one histogram
// update, as MatchMerged records one per call, so the histogram counts
// matched events and a long run weighs in the percentiles by its length.
// No-op without metrics.
func (b *Broker) ObserveMatchRun(elapsed time.Duration, events int) {
	if b.obs == nil {
		return
	}
	b.obs.matchSeconds.ObserveN(elapsed.Seconds()/float64(events), events)
}

// DeliverExact is the owner step with the pre-filter run here: this
// broker's own published snapshot names the candidates (it always covers
// every owned subscription — the watchdog's coverage invariant), and
// DeliverExactCandidates exact-matches them. It returns the number of
// deliveries. The event path routes through DeliverExactCandidates with
// the candidates the routing broker named.
func (b *Broker) DeliverExact(ev *schema.Event) int {
	l := b.AcquireMatcher()
	defer l.Release()
	var hits Hits
	return b.DeliverExactCandidates(ev, l.m.MatchKeys(ev), &hits)
}

// Hits is reusable storage for the subscriptions one exact pass matched:
// a caller that passes the same Hits to every DeliverExactCandidates call
// makes the pass allocate nothing once it has grown. The zero value is
// ready for use; a Hits serves one call at a time.
type Hits struct{ subs []*subEntry }

// DeliverExactCandidates is the owner step of Algorithm 3 with the
// summary pre-filter already run by whoever routed the event here: keys
// are the candidate id keys that broker's match named for this owner (the
// local hop's own match result, or the id list of a deliver record). Only
// the exact re-match and the delivery remain — an owner-table probe and an
// exact test of the constraints per key, against the raw subscription of
// the current owner table, so a named id that was unsubscribed or reused
// before the call can never produce an unsound delivery. It takes no lock
// once the table is current (see collectExact). Keys owned by other
// brokers are ignored. Every owned subscription has its own summary rows,
// so the names are complete: summaries never produce false negatives. The
// matched subscriptions are collected in hits.
func (b *Broker) DeliverExactCandidates(ev *schema.Event, keys []uint64, hits *Hits) int {
	subs := b.collectExact(ev, keys, hits.subs[:0])
	n := b.deliverHits(ev, subs)
	clear(subs) // pin no subscription past its delivery
	hits.subs = subs[:0]
	return n
}

// collectExact exact-matches this broker's candidate keys against the
// raw subscriptions, appending the matches to hits; keys of other owners
// are skipped.
//
// It reads the published owner table, with no lock. The table is current
// while no Subscribe, Restore or Unsubscribe has bumped ownerGen since it
// was built, and each bumps it, under b.mu, before it returns; so the pass
// linearizes at the generation check in ownerSnapshot. An Unsubscribe that
// returned before the call began is seen there — the stale table is
// rebuilt from subs — and its id is never delivered; one that starts after
// the check may still see the event delivered. Merges of peer summaries
// leave the table current, so they never put a rebuild on this path.
//
// One pass over each candidate's constraints both decides the match and,
// until a hit is found, keeps the first failing constraint's (attribute,
// class) in a buffer of the call's own. If no candidate matches, those are
// the false positive's charges: one per live candidate, a stale one per
// dead candidate, and one stale charge to this broker when it had no
// candidate at all (the sender's merged view of it was stale).
func (b *Broker) collectExact(ev *schema.Event, keys []uint64, hits []*subEntry) []*subEntry {
	owned := b.ownerSnapshot().subs
	self := subid.BrokerID(b.id)
	charge := b.attrib != nil
	var buf [16]fpCharge // a record names few candidates; more spill to the heap
	charges := buf[:0]
	for _, key := range keys {
		owner, local := subid.KeyParts(key)
		if owner != self {
			continue
		}
		e, ok := owned[local]
		if !ok {
			// Retired candidate: named from a summary older than the table.
			if charge {
				charges = append(charges, fpCharge{FPNoAttr, FPClassStale})
			}
			continue
		}
		failed := -1
		for i, c := range e.sub.Constraints {
			if v, present := ev.Value(c.Attr); !present || !c.Satisfied(v) {
				failed = i
				break
			}
		}
		if failed < 0 {
			hits = append(hits, e)
			charge = false
		} else if charge {
			c := e.sub.Constraints[failed]
			charges = append(charges, fpCharge{c.Attr, ClassifyOp(c.Op)})
		}
	}
	if charge {
		if len(charges) == 0 {
			charges = append(charges, fpCharge{FPNoAttr, FPClassStale})
		}
		for _, c := range charges {
			b.attrib.ObserveFP(c.attr, c.class, self)
		}
	}
	return hits
}

// fpCharge is one pending false-positive charge of collectExact's pass.
type fpCharge struct {
	attr  schema.AttrID
	class FPClass
}

// deliverHits counts and performs the consumer deliveries, outside any
// lock (DeliveryFuncs must not call back into the Broker).
func (b *Broker) deliverHits(ev *schema.Event, hits []*subEntry) int {
	if b.obs != nil {
		if len(hits) == 0 {
			// The event reached this broker's exact-match stage — some
			// summary admitted it — but no raw subscription matches: a
			// summary false positive (or a stale remote entry after an
			// unsubscribe).
			b.obs.falsePositives.Inc()
		} else {
			b.obs.deliveries.Add(int64(len(hits)))
		}
	}
	if b.attrib != nil {
		for _, e := range hits {
			b.attrib.CreditDelivery(e.id.Attrs)
		}
	}
	for _, e := range hits {
		e.deliver(e.id, ev)
	}
	return len(hits)
}

// Stats describes the broker's summary state.
type Stats struct {
	OwnSubscriptions  int
	MergedSummarySubs int
	MergedBrokerCount int
	ModelBytes        int   // merged summary size under the paper's cost model
	Compactions       int64 // amortized merged-summary compactions
	PendingRetracts   int   // retractions queued for the next period
	FencedIDs         int   // local ids fenced until the next full sync
}

// MergedOwnerCounts returns, per owning broker, how many subscriptions
// this broker's merged summary currently holds. The watchdog's
// convergence check compares these counts against each owner's live
// subscription count after a quiescent full-sync period.
func (b *Broker) MergedOwnerCounts() map[subid.BrokerID]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	counts := make(map[subid.BrokerID]int)
	for _, id := range b.merged.IDs() {
		counts[id.Broker]++
	}
	return counts
}

// MissingFromMerged returns the ids of locally-owned subscriptions that
// are absent from this broker's own merged summary. The invariant the
// watchdog checks is that this list is always empty: the merged summary
// may overstate coverage (lossy false positives are by design) but must
// never understate it, because an understated own-summary can suppress
// events that a local consumer subscribed to — the one failure mode the
// paper's "no false negatives" guarantee forbids.
func (b *Broker) MissingFromMerged() []subid.ID {
	b.mu.Lock()
	defer b.mu.Unlock()
	var missing []subid.ID
	for _, e := range b.subs {
		if !b.merged.Contains(e.id) {
			missing = append(missing, e.id)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Local < missing[j].Local })
	return missing
}

// CorruptMerged removes id from the merged summary while leaving the raw
// subscription registered — a deliberate coverage understatement. Test
// hook for proving the watchdog detects exactly this class of fault;
// never called by the engine.
func (b *Broker) CorruptMerged(id subid.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.merged.Remove(id)
	b.invalidateMatch()
}

// Stats returns a snapshot (cost model: s_st = s_id = 4).
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		OwnSubscriptions:  len(b.subs),
		MergedSummarySubs: b.merged.NumSubscriptions(),
		MergedBrokerCount: b.mergedBrokers.Count(),
		ModelBytes:        b.merged.SizeBytes(4, 4),
		Compactions:       b.compactions,
		PendingRetracts:   b.delta.NumRetractions(),
		FencedIDs:         len(b.retired),
	}
}

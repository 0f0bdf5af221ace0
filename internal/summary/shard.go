package summary

import (
	"runtime"
	"sync"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// ShardedMatcher runs Algorithm 1 against a key-range partition of one
// summary (ShardByKey). Each shard has its own Matcher, so a batch of
// events can fan its shards out across cores with no shared scratch; a
// single event is matched serially shard by shard. Like Matcher, a
// ShardedMatcher must not be used concurrently with itself; use a
// ShardedMatcherPool to share one partition among goroutines.
type ShardedMatcher struct {
	matchers []*Matcher

	out []uint64 // single-event concatenation scratch

	// Batch scratch: per-shard flat key buffers with per-event offsets,
	// combined into the flat all/res views handed to the caller.
	perShard []shardBatch
	all      []uint64
	res      [][]uint64

	// Parallel fan-out state. fanOut[s] matches the current batch against
	// shard s and is built once here: a go statement on a stored func value
	// with no arguments allocates nothing, so a fanned-out batch stays as
	// allocation-free as a serial one.
	batch  []*schema.Event
	wg     sync.WaitGroup
	fanOut []func()

	obs *MatcherObs // aggregated cost instrumentation; nil = one branch
}

// shardBatch is one shard's batch scratch: keys holds the shard's matches
// for every event back to back, offs[i] the start of event i's segment
// (len(events)+1 entries).
type shardBatch struct {
	keys []uint64
	offs []int32
	cost MatchCost
}

// NewShardedMatcher returns a matcher over the given key-range partition.
// The shards must be disjoint and ascending by key range (what ShardByKey
// produces); the matcher does not re-verify this.
func NewShardedMatcher(shards []*View) *ShardedMatcher {
	m := &ShardedMatcher{
		matchers: make([]*Matcher, len(shards)),
		perShard: make([]shardBatch, len(shards)),
		fanOut:   make([]func(), len(shards)),
	}
	for i, s := range shards {
		m.matchers[i] = s.NewMatcher()
		m.fanOut[i] = func() {
			defer m.wg.Done()
			m.matchShardBatch(i, m.batch)
		}
	}
	return m
}

// NumShards returns the partition width.
func (m *ShardedMatcher) NumShards() int { return len(m.matchers) }

// SetObs attaches cost instrumentation (nil detaches). Counts are
// recorded once per event at the sharded level — the per-shard matchers
// stay uninstrumented so an event is never counted once per shard.
func (m *ShardedMatcher) SetObs(obs *MatcherObs) { m.obs = obs }

// record aggregates one entry point's cost into the attached obs.
func (m *ShardedMatcher) record(events int, cost MatchCost) {
	if m.obs == nil {
		return
	}
	if m.obs.Events != nil {
		m.obs.Events.Add(int64(events))
	}
	if m.obs.Collected != nil {
		m.obs.Collected.Add(int64(cost.CollectedIDs))
	}
	if m.obs.Matched != nil {
		m.obs.Matched.Add(int64(cost.Matched))
	}
}

// MatchKeys returns the matched id keys in ascending order — identical to
// an unsharded Matcher over the union of the shards. The slice is scratch
// owned by the matcher, valid until the next call.
func (m *ShardedMatcher) MatchKeys(e *schema.Event) []uint64 {
	keys, _ := m.MatchKeysWithCost(e)
	return keys
}

// MatchKeysWithCost is MatchKeys with the Section 5.2.4 operation counts
// aggregated across shards (EventAttrs is counted once, not per shard).
func (m *ShardedMatcher) MatchKeysWithCost(e *schema.Event) ([]uint64, MatchCost) {
	var cost MatchCost
	m.out = m.out[:0]
	for i, sm := range m.matchers {
		keys, c := sm.MatchKeysWithCost(e)
		m.out = append(m.out, keys...)
		if i == 0 {
			cost.EventAttrs = c.EventAttrs
		}
		cost.CollectedIDs += c.CollectedIDs
		cost.UniqueIDs += c.UniqueIDs
	}
	cost.Matched = len(m.out)
	m.record(1, cost)
	return m.out, cost
}

// Match is MatchKeys returning full subscription ids (freshly allocated,
// caller-owned), with each id's c3 mask recovered from its shard's
// registry.
func (m *ShardedMatcher) Match(e *schema.Event) []subid.ID {
	m.MatchKeys(e)
	out := make([]subid.ID, 0, len(m.out))
	for _, sm := range m.matchers {
		for _, idx := range sm.hit {
			out = append(out, sm.v.idAt(idx))
		}
	}
	return out
}

// batchParallelMin is the batch size below which shard fan-out is not
// worth the goroutine round trip.
const batchParallelMin = 4

// MatchBatch matches every event against every shard and returns res,
// where res[i] is event i's matched keys in ascending order (identical to
// unsharded matching). With more than one shard, a large enough batch,
// and spare cores, the shards run in parallel — each shard's matcher
// walks the whole batch with its own scratch, so no two goroutines share
// state. The returned slices are scratch owned by the matcher, valid
// until the next call.
func (m *ShardedMatcher) MatchBatch(events []*schema.Event) [][]uint64 {
	res, _ := m.MatchBatchWithCost(events)
	return res
}

// MatchBatchWithCost is MatchBatch with the operation counts summed over
// the whole batch.
func (m *ShardedMatcher) MatchBatchWithCost(events []*schema.Event) ([][]uint64, MatchCost) {
	nShards := len(m.matchers)
	parallel := nShards > 1 && len(events) >= batchParallelMin && runtime.GOMAXPROCS(0) > 1
	if parallel {
		m.batch = events
		m.wg.Add(nShards)
		for _, run := range m.fanOut {
			go run()
		}
		m.wg.Wait()
		m.batch = nil
	} else {
		for s := 0; s < nShards; s++ {
			m.matchShardBatch(s, events)
		}
	}
	// Concatenate per event in shard order: shard key ranges ascend, so
	// the result is globally sorted without a merge step.
	var cost MatchCost
	m.all = m.all[:0]
	if cap(m.res) < len(events) {
		m.res = make([][]uint64, len(events))
	}
	m.res = m.res[:len(events)]
	for i := range events {
		start := len(m.all)
		for s := range m.perShard {
			sb := &m.perShard[s]
			m.all = append(m.all, sb.keys[sb.offs[i]:sb.offs[i+1]]...)
		}
		m.res[i] = m.all[start:len(m.all):len(m.all)]
	}
	for s := range m.perShard {
		c := m.perShard[s].cost
		if s == 0 {
			cost.EventAttrs = c.EventAttrs
		}
		cost.CollectedIDs += c.CollectedIDs
		cost.UniqueIDs += c.UniqueIDs
	}
	cost.Matched = len(m.all)
	m.record(len(events), cost)
	return m.res, cost
}

// matchShardBatch runs one shard's matcher over the whole batch into that
// shard's scratch. Safe to run concurrently across shards: it touches
// only m.perShard[s] and m.matchers[s].
func (m *ShardedMatcher) matchShardBatch(s int, events []*schema.Event) {
	sb := &m.perShard[s]
	sb.keys = sb.keys[:0]
	sb.offs = sb.offs[:0]
	sb.cost = MatchCost{}
	mt := m.matchers[s]
	for _, e := range events {
		sb.offs = append(sb.offs, int32(len(sb.keys)))
		keys, c := mt.MatchKeysWithCost(e)
		sb.keys = append(sb.keys, keys...)
		sb.cost.EventAttrs += c.EventAttrs
		sb.cost.CollectedIDs += c.CollectedIDs
		sb.cost.UniqueIDs += c.UniqueIDs
	}
	sb.offs = append(sb.offs, int32(len(sb.keys)))
}

// ShardedMatcherPool pools ShardedMatchers bound to one fixed partition,
// so concurrent readers of a published snapshot each lease private
// scratch without locking.
type ShardedMatcherPool struct {
	pool sync.Pool
	obs  *MatcherObs
}

// NewShardedMatcherPool returns a pool over the given partition.
func NewShardedMatcherPool(shards []*View) *ShardedMatcherPool {
	p := &ShardedMatcherPool{}
	p.pool.New = func() any {
		m := NewShardedMatcher(shards)
		m.SetObs(p.obs)
		return m
	}
	return p
}

// SetObs attaches cost instrumentation to matchers the pool creates.
// Call before the first Get; already-created matchers keep their setting.
func (p *ShardedMatcherPool) SetObs(obs *MatcherObs) { p.obs = obs }

// Get leases a matcher bound to the pool's partition.
func (p *ShardedMatcherPool) Get() *ShardedMatcher { return p.pool.Get().(*ShardedMatcher) }

// Put returns m to the pool.
func (p *ShardedMatcherPool) Put(m *ShardedMatcher) { p.pool.Put(m) }

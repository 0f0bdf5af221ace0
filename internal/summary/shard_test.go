package summary

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/workload"
)

// shardFixture builds a CW24-shaped summary (24 brokers × σ random
// subscriptions over the stock schema) plus a batch of random events.
// Same generator family as the matcher differential tests, so a healthy
// fraction of the events actually match.
func shardFixture(t testing.TB, sigma, nEvents int, seed int64) (*Summary, []*schema.Event) {
	t.Helper()
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(seed))
	sm := New(s, interval.Lossy)
	for i := 0; i < 24*sigma; i++ {
		id := subid.ID{Broker: subid.BrokerID(i % 24), Local: subid.LocalID(i / 24)}
		if err := sm.Insert(id, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	events := make([]*schema.Event, nEvents)
	for i := range events {
		events[i] = randomEvent(rng, s)
	}
	return sm, events
}

// shardBatchFixture is the call production makes: a two-shard matcher,
// warmed, over a run of eight events.
func shardBatchFixture(t testing.TB) (*ShardedMatcher, []*schema.Event) {
	t.Helper()
	sm, events := shardFixture(t, 100, 8, 45)
	m := NewShardedMatcher(sm.ShardByKey(2))
	m.MatchBatch(events) // warm scratch
	return m, events
}

// TestShardByKeyPartition proves ShardByKey is an exact partition: every
// id lands in exactly one shard, and shard key ranges are disjoint and
// ascending (the property concatenation-order determinism rests on).
func TestShardByKeyPartition(t *testing.T) {
	sm, _ := shardFixture(t, 20, 0, 41)
	for _, n := range []int{1, 2, 3, 4, 8, 17} {
		shards := sm.ShardByKey(n)
		if len(shards) != n {
			t.Fatalf("ShardByKey(%d) returned %d shards", n, len(shards))
		}
		var all []uint64
		prevMax := uint64(0)
		first := true
		for si, sh := range shards {
			keys := append([]uint64(nil), sh.keys...)
			slices.Sort(keys)
			if len(keys) == 0 {
				t.Fatalf("shard %d/%d is empty", si, n)
			}
			if !first && keys[0] <= prevMax {
				t.Fatalf("shard %d min key %d not above previous shard max %d", si, keys[0], prevMax)
			}
			prevMax = keys[len(keys)-1]
			first = false
			all = append(all, keys...)
		}
		want := append([]uint64(nil), sm.keys...)
		slices.Sort(want)
		slices.Sort(all)
		if !slices.Equal(all, want) {
			t.Fatalf("shards of %d do not partition the id set: %d ids vs %d", n, len(all), len(want))
		}
	}
}

// TestShardInvariance is the differential determinism test: the sharded
// matcher must produce byte-identical match sets to the unsharded matcher
// at every shard count, over both the single-event and the batched entry
// points.
func TestShardInvariance(t *testing.T) {
	sm, events := shardFixture(t, 100, 1000, 42)
	ref := sm.NewMatcher()
	want := make([][]uint64, len(events))
	for i, ev := range events {
		want[i] = append([]uint64(nil), ref.MatchKeys(ev)...)
	}
	total := 0
	for _, w := range want {
		total += len(w)
	}
	if total == 0 {
		t.Fatal("workload produced zero matches; the test would be vacuous")
	}
	for _, n := range []int{1, 2, 4, 8} {
		m := NewShardedMatcher(sm.ShardByKey(n))
		for i, ev := range events {
			if got := m.MatchKeys(ev); !slices.Equal(got, want[i]) {
				t.Fatalf("shards=%d event %d: MatchKeys diverged (%d vs %d keys)", n, i, len(got), len(want[i]))
			}
		}
		// Batched path, including the parallel fan-out when cores allow.
		for lo := 0; lo < len(events); lo += 64 {
			hi := min(lo+64, len(events))
			res := m.MatchBatch(events[lo:hi])
			for i, keys := range res {
				if !slices.Equal(keys, want[lo+i]) {
					t.Fatalf("shards=%d batch event %d: MatchBatch diverged", n, lo+i)
				}
			}
		}
	}
}

// TestShardedMatchIDs checks Match recovers full ids (with c3 masks) in
// the reference's order.
func TestShardedMatchIDs(t *testing.T) {
	sm, events := shardFixture(t, 50, 100, 43)
	m := NewShardedMatcher(sm.ShardByKey(4))
	for _, ev := range events {
		want := sm.referenceMatch(ev)
		got := m.Match(ev)
		if len(got) != len(want) {
			t.Fatalf("Match returned %d ids, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() || !got[i].Attrs.Equal(want[i].Attrs) {
				t.Fatalf("id %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}

// TestShardedMatcherZeroAllocs proves the sharded paths keep the
// matcher's zero-steady-state-allocation guarantee: serial MatchKeys and
// MatchBatch, and the production batch as the host's cores run it.
func TestShardedMatcherZeroAllocs(t *testing.T) {
	sm, events := shardFixture(t, 100, 64, 44)
	m := NewShardedMatcher(sm.ShardByKey(4))
	for _, ev := range events { // warm scratch
		m.MatchKeys(ev)
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, ev := range events {
			m.MatchKeys(ev)
		}
	})
	if avg != 0 {
		t.Fatalf("sharded MatchKeys allocates %.1f allocs per 64-event sweep, want 0", avg)
	}
	// Serial batches (below the parallel fan-out threshold) must stay
	// allocation-free too; the parallel path's goroutine bookkeeping is
	// amortized per batch, not per event, so it is exempt here.
	small := events[:batchParallelMin-1]
	m.MatchBatch(small) // warm batch scratch
	avg = testing.AllocsPerRun(200, func() {
		m.MatchBatch(small)
	})
	if avg != 0 {
		t.Fatalf("serial MatchBatch allocates %.1f allocs per batch, want 0", avg)
	}
	// BenchmarkShardedMatchBatch's eight-event, two-shard run at the
	// ambient GOMAXPROCS, so a multicore host takes the fanned-out path
	// production takes (AllocsPerRun would pin GOMAXPROCS to 1). Mallocs
	// over 1000 batches, divided as -benchmem divides them: the fan-out's
	// occasional goroutine bookkeeping (29 B/op on a 2-core guest) stays
	// under one object per batch, a per-batch allocation does not.
	bm, batch := shardBatchFixture(t)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bm.MatchBatch(batch)
	}
	runtime.ReadMemStats(&after)
	if per := (after.Mallocs - before.Mallocs) / runs; per != 0 {
		t.Fatalf("eight-event MatchBatch (GOMAXPROCS=%d) allocates %d objects per batch, want 0",
			runtime.GOMAXPROCS(0), per)
	}
}

// TestShardByKeyEdgeCases covers empty summaries and n above the id count.
func TestShardByKeyEdgeCases(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty := New(gen.Schema(), interval.Lossy)
	shards := empty.ShardByKey(8)
	if len(shards) != 1 || shards[0].NumSubscriptions() != 0 {
		t.Fatalf("empty summary should shard to one empty shard, got %d", len(shards))
	}
	three := New(gen.Schema(), interval.Lossy)
	for i := 0; i < 3; i++ {
		id := subid.ID{Broker: 0, Local: subid.LocalID(i)}
		if err := three.Insert(id, gen.Subscription()); err != nil {
			t.Fatal(err)
		}
	}
	shards = three.ShardByKey(8)
	if len(shards) != 3 {
		t.Fatalf("3-id summary sharded to %d shards, want clamp to 3", len(shards))
	}
}

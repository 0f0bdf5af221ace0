package summary

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/subid"
)

var viewShardCounts = []int{1, 2, 3, 8}

// dirtySummary builds a random multi-broker summary and leaves it the way
// a live merged summary looks between purge points: a fifth of its ids
// tombstoned (RemoveKey without Compact, rows still in the structures),
// plus rows naming an id no registry ever held.
func dirtySummary(t testing.TB, rng *rand.Rand, s *schema.Schema, mode interval.Mode, n int) *Summary {
	t.Helper()
	sm := New(s, mode)
	for i := 0; i < n; i++ {
		id := subid.ID{Broker: subid.BrokerID(i % 5), Local: subid.LocalID(i / 5)}
		if err := sm.Insert(id, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/5; i++ {
		sm.RemoveKey(sm.keys[rng.Intn(len(sm.keys))])
	}
	if len(sm.dead) == 0 {
		t.Fatal("fixture has no unpurged tombstones")
	}
	stray := subid.ID{Broker: 77, Local: 7}.Key()
	priceID, _ := s.ID("price")
	symbolID, _ := s.ID("symbol")
	sm.arithSet(priceID).Insert(interval.Full(), stray)
	sm.arithSet(priceID).InsertNotEqual(-1, stray)
	sm.strSet(symbolID).Insert(strmatch.Pattern{Op: schema.OpNE, Text: "nobody"}, stray)
	return sm
}

// TestViewMatchesReference is the differential test of the compiled view:
// on seeded random summaries in both modes, the summary-following matcher
// and a sharded matcher at every shard count return the keys and the
// MatchCost of the map-based reference, with unpurged tombstones and a
// stray row id in the structures. The one-shot Summary.Match/MatchKeys
// wrappers are held to the same reference, also between mutations: each
// call caches the view it compiled, so every mutator must drop it.
func TestViewMatchesReference(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(61))
	matched := 0
	for _, mode := range []interval.Mode{interval.Lossy, interval.Exact} {
		for trial := 0; trial < 4; trial++ {
			sm := dirtySummary(t, rng, s, mode, 80+rng.Intn(80))
			events := make([]*schema.Event, 120)
			for i := range events {
				events[i] = randomEvent(rng, s)
			}
			check := func(name string, match func(*schema.Event) ([]uint64, MatchCost)) {
				t.Helper()
				for _, ev := range events {
					wantKeys, wantCost := sm.referenceMatchKeysWithCost(ev)
					gotKeys, gotCost := match(ev)
					if !slices.Equal(gotKeys, wantKeys) || gotCost != wantCost {
						t.Fatalf("mode %v trial %d %s on %s:\nreference %v %+v\nview      %v %+v",
							mode, trial, name, ev.Format(s), wantKeys, wantCost, gotKeys, gotCost)
					}
					matched += len(wantKeys)
				}
			}
			check("Summary.NewMatcher", sm.NewMatcher().MatchKeysWithCost)
			checkWrappers := func(stage string) {
				t.Helper()
				for _, ev := range events {
					if got, want := sm.MatchKeys(ev), sm.referenceMatchKeys(ev); !slices.Equal(got, want) {
						t.Fatalf("mode %v trial %d Summary.MatchKeys %s on %s:\nreference %v\nwrapper   %v",
							mode, trial, stage, ev.Format(s), want, got)
					}
					if got, want := sm.Match(ev), sm.referenceMatch(ev); !reflect.DeepEqual(got, want) {
						t.Fatalf("mode %v trial %d Summary.Match %s on %s:\nreference %v\nwrapper   %v",
							mode, trial, stage, ev.Format(s), want, got)
					}
				}
			}
			checkWrappers("as built")
			for _, n := range viewShardCounts {
				shards := sm.ShardByKey(n)
				if len(shards) != n {
					t.Fatalf("ShardByKey(%d) returned %d views", n, len(shards))
				}
				m := NewShardedMatcher(shards)
				check(fmt.Sprintf("%d shards", n), m.MatchKeysWithCost)
				check(fmt.Sprintf("%d shards, batched", n), func(ev *schema.Event) ([]uint64, MatchCost) {
					res, cost := m.MatchBatchWithCost([]*schema.Event{ev})
					return res[0], cost
				})
			}
			if len(sm.dead) == 0 {
				t.Fatal("compiling a view purged the summary: ShardByKey must only read")
			}
			if err := sm.Insert(id(8, 1), randomSubscription(rng, s)); err != nil {
				t.Fatal(err)
			}
			checkWrappers("after Insert")
			sm.RemoveKey(sm.keys[rng.Intn(len(sm.keys))])
			checkWrappers("after RemoveKey")
			other := New(s, mode)
			for i := 0; i < 10; i++ {
				if err := other.Insert(id(9, subid.LocalID(i)), randomSubscription(rng, s)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sm.MergeEncoded(other.Encode(nil)); err != nil {
				t.Fatal(err)
			}
			checkWrappers("after MergeEncoded")
		}
	}
	if matched == 0 {
		t.Fatal("no event matched anything; the differential would be vacuous")
	}
}

// TestViewInvariants checks what a compiled view promises about its own
// shape: ascending keys, every row id a valid dense index, no id of
// another shard's range, a tombstone or a stray surviving in any row — and
// that each compiled set's distinct flag is sound: brute force over every
// value a row names (and one no row names), no query of a set that claims
// distinct lists returns an id twice. The flag may err the other way.
func TestViewInvariants(t *testing.T) {
	s := stockSchema(t)
	sm := dirtySummary(t, rand.New(rand.NewSource(62)), s, interval.Lossy, 150)
	// Shards partition the live row entries: what the purged summary holds,
	// no more (nothing dead or stray) and no less.
	clean := sm.Clone()
	priceID, _ := s.ID("price")
	symbolID, _ := s.ID("symbol")
	stray := map[uint64]struct{}{subid.ID{Broker: 77, Local: 7}.Key(): {}}
	clean.aacs[priceID].RemoveAll(stray)
	clean.sacs[symbolID].RemoveAll(stray)
	st := clean.Stats()
	liveEntries := st.Arithmetic.IDEntries + st.Strings.IDEntries
	sm = dirtySummary(t, rand.New(rand.NewSource(62)), s, interval.Lossy, 150) // Clone purged sm
	for _, n := range viewShardCounts {
		entries := 0
		for si, v := range sm.ShardByKey(n) {
			if !slices.IsSorted(v.keys) || len(slices.Compact(slices.Clone(v.keys))) != len(v.keys) {
				t.Fatalf("%d shards: view %d keys not strictly ascending", n, si)
			}
			for i, key := range v.keys {
				if ri, ok := sm.ids[key]; !ok || sm.targets[ri] != int32(v.targets[i]) || !sm.masks[ri].Equal(v.masks[i]) {
					t.Fatalf("%d shards: view %d index %d (key %d) disagrees with the registry", n, si, i, key)
				}
			}
			rowIDs := func(ids []uint64) {
				for _, id := range ids {
					if id >= uint64(len(v.keys)) {
						t.Fatalf("%d shards: view %d holds row id %d, beyond its %d keys", n, si, id, len(v.keys))
					}
				}
				if !slices.IsSorted(ids) {
					t.Fatalf("%d shards: view %d row ids not ascending: %v", n, si, ids)
				}
				entries += len(ids)
			}
			for _, set := range v.aacs {
				for _, r := range set.Rows() {
					rowIDs(r.IDs)
				}
				for _, r := range set.EqRows() {
					rowIDs(r.IDs)
				}
				for _, r := range set.NeRows() {
					rowIDs(r.IDs)
				}
			}
			for _, set := range v.sacs {
				for _, r := range set.Rows() {
					rowIDs(r.IDs)
				}
				for _, r := range set.NeRows() {
					rowIDs(r.IDs)
				}
			}
		}
		if entries != liveEntries {
			t.Fatalf("%d shards hold %d row entries in all, the purged summary %d", n, entries, liveEntries)
		}
	}

	// The distinct flags, in both modes. The Exact summary also gets the one
	// repeat only that mode consults together and no subscription yields:
	// an id in an equality row and in the sub-range row around it.
	exact := dirtySummary(t, rand.New(rand.NewSource(66)), s, interval.Exact, 150)
	edited := false
	for a := 0; a < s.Len() && !edited; a++ {
		set := exact.aacs[schema.AttrID(a)]
		if set == nil {
			continue
		}
		for _, eq := range set.EqRows() {
			if _, live := exact.ids[eq.IDs[0]]; live {
				set.Insert(interval.Interval{Lo: eq.Value - 1, Hi: eq.Value + 1}, eq.IDs[0])
				edited = true
				break
			}
		}
	}
	if !edited {
		t.Fatal("fixture: the Exact summary has no live equality row to put a range around")
	}
	for _, sm := range []*Summary{sm, exact} {
		repeats, distinctQueries := 0, 0
		for _, n := range viewShardCounts {
			for _, v := range sm.ShardByKey(n) {
				r, d := requireSoundDistinct(t, v)
				repeats, distinctQueries = repeats+r, distinctQueries+d
			}
		}
		// Both sides of the flag were exercised: queries that do repeat an
		// id, and multi-list queries of sets that rightly claim none can.
		if repeats == 0 || distinctQueries == 0 {
			t.Fatalf("mode %v: fixture exercised %d repeating queries and %d multi-list distinct ones; want both",
				sm.mode, repeats, distinctQueries)
		}
	}
}

// requireSoundDistinct brute-forces every compiled set of v: each value a
// row names and one no row names is queried, and a query that returns an
// id twice must come from a set that does not claim distinct lists. It
// returns how many queries repeated an id and how many consulted several
// lists under a distinct claim.
func requireSoundDistinct(t *testing.T, v *View) (repeats, distinctQueries int) {
	t.Helper()
	check := func(a schema.AttrID, val any, lists [][]uint64, distinct bool) {
		t.Helper()
		switch {
		case listsRepeat(lists) && distinct:
			t.Fatalf("attribute %d claims distinct lists, but %v consults %v", a, val, lists)
		case listsRepeat(lists):
			repeats++
		case distinct && len(lists) > 1:
			distinctQueries++
		}
	}
	for a, set := range v.aacs {
		values := []float64{-12345.5} // no row names it
		for _, r := range set.Rows() {
			values = append(values, r.Interval.Lo, r.Interval.Hi, (r.Interval.Lo+r.Interval.Hi)/2)
		}
		for _, r := range set.EqRows() {
			values = append(values, r.Value)
		}
		for _, r := range set.NeRows() {
			values = append(values, r.Value)
		}
		for _, val := range values {
			lists, distinct := set.AppendLists(nil, val)
			check(a, val, lists, distinct)
		}
	}
	for a, set := range v.sacs {
		values := []string{"no row names this"}
		for _, r := range set.Rows() {
			// The text itself, and values only a prefix, suffix or contains
			// row of that text reaches.
			values = append(values, r.Pattern.Text, r.Pattern.Text+"~", "~"+r.Pattern.Text, "~"+r.Pattern.Text+"~")
		}
		for _, r := range set.NeRows() {
			values = append(values, r.Pattern.Text)
		}
		for _, val := range values {
			lists, distinct := set.AppendLists(nil, val)
			check(a, val, lists, distinct)
		}
	}
	return repeats, distinctQueries
}

// TestViewReRegisteredID retracts an id and registers it again with
// different constraints: none of its old rows may count toward the new c3
// target — in a matcher that was following the summary all along, or in
// fresh shards.
func TestViewReRegisteredID(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	x := id(4, 9)
	if err := sm.Insert(x, mustSub(t, s, `price > 10 && symbol = OTE && volume < 50`)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Insert(id(4, 10), mustSub(t, s, `price > 10`)); err != nil {
		t.Fatal(err)
	}
	follower := sm.NewMatcher()
	old := mustEvent(t, s, `price=20 symbol=OTE volume=5 exchange=NYSE`)
	if got := follower.MatchKeys(old); !slices.Equal(got, []uint64{x.Key(), id(4, 10).Key()}) {
		t.Fatalf("before retraction: matched %v", got)
	}
	sm.AddRetraction(x.Key())
	if got := follower.MatchKeys(old); !slices.Equal(got, []uint64{id(4, 10).Key()}) {
		t.Fatalf("after retraction: matched %v, want only the other subscription", got)
	}
	if err := sm.Insert(x, mustSub(t, s, `exchange = NYSE`)); err != nil {
		t.Fatal(err)
	}
	// The new subscription constrains one attribute. Stale price, symbol
	// and volume rows would push its counter to 4 on this event and lose it.
	both := []uint64{x.Key(), id(4, 10).Key()}
	onlyNew := mustEvent(t, s, `exchange=NYSE`)
	onlyOld := mustEvent(t, s, `price=20 symbol=OTE volume=5 exchange=LSE`)
	for name, match := range map[string]func(*schema.Event) []uint64{
		"follower": follower.MatchKeys,
		"1 shard":  NewShardedMatcher(sm.ShardByKey(1)).MatchKeys,
		"2 shards": NewShardedMatcher(sm.ShardByKey(2)).MatchKeys,
	} {
		if got := match(old); !slices.Equal(got, both) {
			t.Errorf("%s: old+new event matched %v, want %v", name, got, both)
		}
		if got := match(onlyNew); !slices.Equal(got, []uint64{x.Key()}) {
			t.Errorf("%s: new-constraint event matched %v, want the re-registered id", name, got)
		}
		if got := match(onlyOld); !slices.Equal(got, []uint64{id(4, 10).Key()}) {
			t.Errorf("%s: old-constraint event matched %v, want only the other subscription", name, got)
		}
	}
}

// TestViewEmptySummary: an empty summary compiles to one empty view at
// any requested width and matches nothing, at the reference's cost.
func TestViewEmptySummary(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Exact)
	ev := randomEvent(rand.New(rand.NewSource(63)), s)
	_, want := sm.referenceMatchKeysWithCost(ev)
	for _, n := range viewShardCounts {
		shards := sm.ShardByKey(n)
		if len(shards) != 1 || shards[0].NumSubscriptions() != 0 {
			t.Fatalf("ShardByKey(%d) of an empty summary: %d views", n, len(shards))
		}
		keys, cost := NewShardedMatcher(shards).MatchKeysWithCost(ev)
		if len(keys) != 0 || cost != want {
			t.Fatalf("empty view matched %v at cost %+v, want nothing at %+v", keys, cost, want)
		}
	}
	if keys, cost := sm.NewMatcher().MatchKeysWithCost(ev); len(keys) != 0 || cost != want {
		t.Fatalf("empty summary's matcher returned %v at cost %+v", keys, cost)
	}
}

// TestShardedMatchRecoversMasks checks the id-returning entry points give
// every matched id its c3 mask, at each shard count.
func TestShardedMatchRecoversMasks(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(64))
	sm := dirtySummary(t, rng, s, interval.Lossy, 160)
	matchers := []interface {
		Match(*schema.Event) []subid.ID
	}{sm.NewMatcher()}
	for _, n := range viewShardCounts {
		matchers = append(matchers, NewShardedMatcher(sm.ShardByKey(n)))
	}
	matched := 0
	for probe := 0; probe < 200; probe++ {
		ev := randomEvent(rng, s)
		want := sm.referenceMatch(ev)
		matched += len(want)
		for mi, m := range matchers {
			got := m.Match(ev)
			if len(got) != len(want) {
				t.Fatalf("matcher %d returned %d ids, want %d", mi, len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() || got[i].Attrs == nil || !got[i].Attrs.Equal(want[i].Attrs) {
					t.Fatalf("matcher %d id %d: got %v want %v", mi, i, got[i], want[i])
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no event matched anything; the mask check would be vacuous")
	}
}

// TestViewImmutableUnderMutation publishes views, then keeps mutating the
// summary they came from — inserts, removals, purges, compaction, merges —
// while goroutines match against the views: every answer must be the one
// the summary gave at compile time. Under -race this is also the proof
// that a view shares no mutable memory with its summary.
func TestViewImmutableUnderMutation(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(65))
	sm := dirtySummary(t, rng, s, interval.Lossy, 200)
	events := make([]*schema.Event, 100)
	want := make([][]uint64, len(events))
	for i := range events {
		events[i] = randomEvent(rng, s)
		want[i] = sm.referenceMatchKeys(events[i])
	}
	var pools []*ShardedMatcherPool
	for _, n := range viewShardCounts {
		pools = append(pools, NewShardedMatcherPool(sm.ShardByKey(n)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, pool := range pools {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(pool *ShardedMatcherPool) {
				defer wg.Done()
				for rep := 0; ; rep++ {
					select {
					case <-stop:
						return
					default:
					}
					m := pool.Get()
					for i, keys := range m.MatchBatch(events) {
						if !slices.Equal(keys, want[i]) {
							t.Errorf("event %d after mutations: %v, want the compile-time answer %v", i, keys, want[i])
							pool.Put(m)
							return
						}
					}
					pool.Put(m)
				}
			}(pool)
		}
	}
	other := New(s, interval.Lossy)
	for i := 0; i < 40; i++ {
		if err := other.Insert(id(9, subid.LocalID(i)), randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		switch i % 5 {
		case 0, 1:
			if err := sm.Insert(id(8, subid.LocalID(i)), randomSubscription(rng, s)); err != nil {
				t.Fatal(err)
			}
		case 2:
			sm.RemoveKey(sm.keys[rng.Intn(len(sm.keys))])
		case 3:
			sm.Compact()
		case 4:
			if err := sm.MergeEncoded(other.Encode(nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkShardedMatchBatch is the call production makes: a leased
// two-shard matcher over a run of eight events (serial or fanned out, as
// the cores allow). The shards are compiled before the timer;
// TestShardedMatcherZeroAllocs holds this run at 0 allocations per batch
// at the ambient GOMAXPROCS.
func BenchmarkShardedMatchBatch(b *testing.B) {
	m, events := shardBatchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchBatch(events)
	}
}

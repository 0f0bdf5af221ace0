package summary

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/idlist"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/subid"
)

// dirtySummary builds a random multi-broker summary and leaves it the way
// a live merged summary looks between purge points: a fifth of its ids
// tombstoned (RemoveKey without Compact, rows still in the structures),
// plus rows naming an id no registry ever held.
func dirtySummary(t testing.TB, rng *rand.Rand, s *schema.Schema, n int) *Summary {
	t.Helper()
	sm := New(s, interval.Lossy)
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
// on seeded random summaries, a matcher bound to the compiled view, one
// event at a time and batched, returns the keys and the MatchCost of the
// map-based reference, with unpurged tombstones and a stray row id in the
// structures; the keys are those of counting every listed id. The one-shot
// Summary.Match/MatchKeys wrappers are held to the same reference, also
// between mutations: each call compiles the summary as it then stands.
func TestViewMatchesReference(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(61))
	matched := 0
	for trial := 0; trial < 4; trial++ {
		sm := dirtySummary(t, rng, s, 80+rng.Intn(80))
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
					t.Fatalf("trial %d %s on %s:\nreference %v %+v\nview      %v %+v",
						trial, name, ev.Format(s), wantKeys, wantCost, gotKeys, gotCost)
				}
				if all := sm.unadmittedMatchKeys(ev); !slices.Equal(all, wantKeys) {
					t.Fatalf("trial %d on %s: admission changed the keys: %v, counting every id %v",
						trial, ev.Format(s), wantKeys, all)
				}
				matched += len(wantKeys)
			}
		}
		bound := sm.NewMatcher()
		check("matcher", bound.MatchKeysWithCost)
		res := bound.MatchBatch(events)
		if len(res) != len(events) {
			t.Fatalf("MatchBatch returned %d results for %d events", len(res), len(events))
		}
		for i, keys := range res {
			if want := sm.referenceMatchKeys(events[i]); !slices.Equal(keys, want) {
				t.Fatalf("trial %d MatchBatch event %d: %v, reference %v", trial, i, keys, want)
			}
		}
		checkWrappers := func(stage string) {
			t.Helper()
			for _, ev := range events {
				if got, want := sm.MatchKeys(ev), sm.referenceMatchKeys(ev); !slices.Equal(got, want) {
					t.Fatalf("trial %d Summary.MatchKeys %s on %s:\nreference %v\nwrapper   %v",
						trial, stage, ev.Format(s), want, got)
				}
				if got, want := sm.Match(ev), sm.referenceMatch(ev); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d Summary.Match %s on %s:\nreference %v\nwrapper   %v",
						trial, stage, ev.Format(s), want, got)
				}
			}
		}
		checkWrappers("as built")
		if len(sm.dead) == 0 {
			t.Fatal("compiling a view purged the summary: Compile must only read")
		}
		if err := sm.Insert(id(8, 1), randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
		checkWrappers("after Insert")
		sm.RemoveKey(sm.keys[rng.Intn(len(sm.keys))])
		checkWrappers("after RemoveKey")
		other := New(s, interval.Lossy)
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
	if matched == 0 {
		t.Fatal("no event matched anything; the differential would be vacuous")
	}
}

// TestViewInvariants checks what a compiled view promises about its own
// shape: every registered id at exactly one index, in
// strictly ascending (mask, key) order; groups that partition the indices
// into one run per mask, and a union that is the OR of their masks; cons
// bitsets that name the ids of each attribute, and group bitsets that name
// its groups; the ids of every row strictly ascending by index, and no
// tombstone or stray surviving in any of them. At 3 000 ids the view has
// more than 64 groups, so the group bitsets span two words.
func TestViewInvariants(t *testing.T) {
	s := stockSchema(t)
	for _, n := range []int{150, 3000} {
		sm := dirtySummary(t, rand.New(rand.NewSource(62)), s, n)
		v := sm.Compile()
		if n > 1000 && len(v.groups) <= 64 {
			t.Fatalf("fixture: %d ids compile to %d groups; want more than 64", n, len(v.groups))
		}
		requireViewShape(t, sm, v)
	}
}

// requireViewShape checks v, compiled from the dirty summary sm, against
// sm's registry and rows. It purges sm.
func requireViewShape(t *testing.T, sm *Summary, v *View) {
	t.Helper()
	n := len(v.keys)
	if n != len(sm.keys) || len(v.groupOf) != n || v.words != (n+63)/64 {
		t.Fatalf("view holds %d keys, %d group numbers and %d-word bitsets for %d registered ids",
			n, len(v.groupOf), v.words, len(sm.keys))
	}
	maskAt := func(i int) subid.Mask { return v.groups[v.groupOf[i]].mask }
	for i, key := range v.keys {
		if ri, ok := sm.ids[key]; !ok || !sm.masks[ri].Equal(maskAt(i)) {
			t.Fatalf("index %d (key %d) disagrees with the registry", i, key)
		}
		for a := 0; a < sm.schema.Len(); a++ {
			at := v.attr(schema.AttrID(a))
			if named := at != nil && at.cons[i>>6]&(1<<(i&63)) != 0; named != maskAt(i).Has(a) {
				t.Fatalf("index %d: cons of attribute %d holds it %v, its mask %v", i, a, named, maskAt(i))
			}
		}
		if i > 0 {
			if c := maskAt(i - 1).Compare(maskAt(i)); c > 0 || c == 0 && v.keys[i-1] >= v.keys[i] {
				t.Fatalf("indices %d, %d not in strictly ascending (mask, key) order: %v %d, %v %d",
					i-1, i, maskAt(i-1), v.keys[i-1], maskAt(i), v.keys[i])
			}
		}
	}
	if len(v.groups) < 2 {
		t.Fatalf("fixture compiles to %d groups; want several", len(v.groups))
	}
	var union subid.Mask
	next := uint64(0)
	for gi, g := range v.groups {
		if g.lo != next || g.hi <= g.lo {
			t.Fatalf("group %d covers [%d, %d), want a non-empty run from %d", gi, g.lo, g.hi, next)
		}
		if gi > 0 && g.mask.Equal(v.groups[gi-1].mask) {
			t.Fatalf("groups %d and %d share mask %v", gi-1, gi, g.mask)
		}
		for i := g.lo; i < g.hi; i++ {
			if v.groupOf[i] != int32(gi) {
				t.Fatalf("index %d is in group %d, inside group %d's run", i, v.groupOf[i], gi)
			}
		}
		for _, b := range g.mask.Bits() {
			union.Set(b)
		}
		next = g.hi
	}
	if next != uint64(n) {
		t.Fatalf("groups end at %d of %d indices", next, n)
	}
	if !union.Equal(v.union) {
		t.Fatalf("union %v, want the OR of the group masks %v", v.union, union)
	}
	// An attribute without a view is named by no mask: the cons check
	// above fails otherwise.
	for a := 0; a < sm.schema.Len(); a++ {
		if at := v.attr(schema.AttrID(a)); at != nil {
			want := make([]uint64, idlist.Words(len(v.groups)))
			for gi, g := range v.groups {
				if g.mask.Has(a) {
					want[gi>>6] |= 1 << (gi & 63)
				}
			}
			if !slices.Equal(at.groups, want) {
				t.Fatalf("attribute %d: group bitset %x, want %x, the groups whose mask names it", a, at.groups, want)
			}
		}
	}

	entries := 0
	rowIDs := func(ids []uint64) {
		for j, id := range ids {
			if id >= uint64(n) {
				t.Fatalf("row id %d beyond the view's %d keys", id, n)
			}
			if j > 0 && ids[j-1] >= id {
				t.Fatalf("row ids not strictly ascending by index: %v", ids)
			}
		}
		entries += len(ids)
	}
	for _, at := range v.attrs {
		set := at.aacs
		if set == nil {
			continue
		}
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
	for _, at := range v.attrs {
		set := at.sacs
		if set == nil {
			continue
		}
		for _, r := range set.Rows() {
			rowIDs(r.IDs)
		}
		for _, r := range set.NeRows() {
			rowIDs(r.IDs)
		}
	}
	// The view holds the live row entries: what the purged summary holds, no
	// more (nothing dead or stray) and no less.
	clean := sm.Clone() // purges sm
	priceID, _ := sm.schema.ID("price")
	symbolID, _ := sm.schema.ID("symbol")
	stray := map[uint64]struct{}{subid.ID{Broker: 77, Local: 7}.Key(): {}}
	clean.aacs[priceID].RemoveAll(stray)
	clean.sacs[symbolID].RemoveAll(stray)
	st := clean.Stats()
	if live := st.Arithmetic.IDEntries + st.Strings.IDEntries; entries != live {
		t.Fatalf("view holds %d row entries, the purged summary %d", entries, live)
	}
}

// TestViewDropsEntriesOutsideMask merges a crafted payload that lists
// registered ids under an attribute their c3 mask lacks: one whose mask
// names price, and one whose mask is empty. Validate calls such a payload
// invalid, but MergeEncoded takes it. Counted, the stray entries would
// push the first id past its target (a false negative), report the
// second although it constrains nothing, and inflate MatchCost. The
// compiled view drops them, so the first id matches every event that
// satisfies its real constraint, the second none, at the cost of the
// live entries alone. The second id is also never admitted: no attribute
// can miss an id whose mask is empty, so the engine's match (MatchKeys)
// would report it for every event if admission took it in; the events
// take both the union path and the restricted one.
func TestViewDropsEntriesOutsideMask(t *testing.T) {
	s := stockSchema(t)
	priceID, _ := s.ID("price")
	crafted := New(s, interval.Lossy)
	x := subid.ID{Broker: 2, Local: 1, Attrs: subid.MaskOf(s.Len(), int(priceID))}
	if err := crafted.Insert(x, mustSub(t, s, `price > 10 && volume < 50`)); err != nil {
		t.Fatal(err)
	}
	if err := crafted.Insert(subid.ID{Broker: 2, Local: 2, Attrs: subid.NewMask(s.Len())}, mustSub(t, s, `volume < 50`)); err != nil {
		t.Fatal(err)
	}
	if crafted.Validate() == nil {
		t.Fatal("fixture: the payload lists ids under volume, which Validate should refuse")
	}
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(1, 1), mustSub(t, s, `volume < 50`)); err != nil {
		t.Fatal(err)
	}
	if err := sm.MergeEncoded(crafted.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	paths := map[bool]int{} // restricted → events
	m := sm.NewMatcher()
	for _, tc := range []struct {
		event string
		want  []uint64
		cost  MatchCost
	}{
		// price lists x; volume lists id 1/1 alone once the strays go.
		{`price=20 volume=5`, []uint64{id(1, 1).Key(), x.Key()}, MatchCost{EventAttrs: 2, CollectedIDs: 2, UniqueIDs: 2, Matched: 2}},
		{`price=20 volume=70`, []uint64{x.Key()}, MatchCost{EventAttrs: 2, CollectedIDs: 1, UniqueIDs: 1, Matched: 1}},
		{`price=20`, []uint64{x.Key()}, MatchCost{EventAttrs: 1, CollectedIDs: 1, UniqueIDs: 1, Matched: 1}},
		{`price=5 volume=5`, []uint64{id(1, 1).Key()}, MatchCost{EventAttrs: 2, CollectedIDs: 1, UniqueIDs: 1, Matched: 1}},
		{`volume=70`, nil, MatchCost{EventAttrs: 1}},
		{`exchange=NYSE`, nil, MatchCost{EventAttrs: 1}},
	} {
		ev := mustEvent(t, s, tc.event)
		if got, cost := m.MatchKeysWithCost(ev); !slices.Equal(got, tc.want) || cost != tc.cost {
			t.Errorf("on %s: matched %v at %+v, want %v at %+v", tc.event, got, cost, tc.want, tc.cost)
		}
		if got := m.MatchKeys(ev); !slices.Equal(got, tc.want) {
			t.Errorf("on %s: MatchKeys matched %v, want %v", tc.event, got, tc.want)
		}
		restricted, _ := scanAdmit(m.v, ev)
		paths[restricted]++
	}
	if paths[false] == 0 || paths[true] == 0 {
		t.Fatalf("events by path (restricted → count) %v: want both the union path and the restricted one", paths)
	}
}

// TestViewReRegisteredID retracts an id and registers it again with
// different constraints: none of its old rows may count toward the new c3
// target in a view compiled afterwards.
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
	old := mustEvent(t, s, `price=20 symbol=OTE volume=5 exchange=NYSE`)
	if got := sm.MatchKeys(old); !slices.Equal(got, []uint64{x.Key(), id(4, 10).Key()}) {
		t.Fatalf("before retraction: matched %v", got)
	}
	sm.AddRetraction(x.Key())
	if got := sm.MatchKeys(old); !slices.Equal(got, []uint64{id(4, 10).Key()}) {
		t.Fatalf("after retraction: matched %v, want only the other subscription", got)
	}
	// The new subscription constrains one attribute. Stale price, symbol
	// and volume rows would push its counter to 4 on the old event and
	// lose it.
	both := []uint64{x.Key(), id(4, 10).Key()}
	onlyNew := mustEvent(t, s, `exchange=NYSE`)
	onlyOld := mustEvent(t, s, `price=20 symbol=OTE volume=5 exchange=LSE`)
	if err := sm.Insert(x, mustSub(t, s, `exchange = NYSE`)); err != nil {
		t.Fatal(err)
	}
	m := sm.NewMatcher()
	if got := m.MatchKeys(old); !slices.Equal(got, both) {
		t.Errorf("old+new event matched %v, want %v", got, both)
	}
	if got := m.MatchKeys(onlyNew); !slices.Equal(got, []uint64{x.Key()}) {
		t.Errorf("new-constraint event matched %v, want the re-registered id", got)
	}
	if got := m.MatchKeys(onlyOld); !slices.Equal(got, []uint64{id(4, 10).Key()}) {
		t.Errorf("old-constraint event matched %v, want only the other subscription", got)
	}
}

// TestViewEmptySummary: an empty summary compiles to an empty view with no
// group, which matches nothing, at the reference's cost.
func TestViewEmptySummary(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	ev := randomEvent(rand.New(rand.NewSource(63)), s)
	_, want := sm.referenceMatchKeysWithCost(ev)
	v := sm.Compile()
	if v.NumSubscriptions() != 0 || len(v.groups) != 0 {
		t.Fatalf("empty summary compiled to %d ids in %d groups", v.NumSubscriptions(), len(v.groups))
	}
	if keys, cost := v.NewMatcher().MatchKeysWithCost(ev); len(keys) != 0 || cost != want {
		t.Fatalf("empty view matched %v at cost %+v, want nothing at %+v", keys, cost, want)
	}
}

// TestMatchRecoversMasks checks the id-returning entry point gives every
// matched id its c3 mask.
func TestMatchRecoversMasks(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(64))
	sm := dirtySummary(t, rng, s, 160)
	m := sm.NewMatcher()
	matched := 0
	for probe := 0; probe < 200; probe++ {
		ev := randomEvent(rng, s)
		want := sm.referenceMatch(ev)
		matched += len(want)
		got := m.Match(ev)
		if len(got) != len(want) {
			t.Fatalf("matcher returned %d ids, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() || got[i].Attrs == nil || !got[i].Attrs.Equal(want[i].Attrs) {
				t.Fatalf("id %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
	if matched == 0 {
		t.Fatal("no event matched anything; the mask check would be vacuous")
	}
}

// TestViewImmutableUnderMutation publishes a view, then keeps mutating the
// summary it came from — inserts, removals, purges, compaction, merges —
// while goroutines match against the view: every answer must be the one
// the summary gave at compile time. Under -race this is also the proof
// that a view shares no mutable memory with its summary.
func TestViewImmutableUnderMutation(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(65))
	sm := dirtySummary(t, rng, s, 200)
	events := make([]*schema.Event, 100)
	want := make([][]uint64, len(events))
	for i := range events {
		events[i] = randomEvent(rng, s)
		want[i] = sm.referenceMatchKeys(events[i])
	}
	v := sm.Compile()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(m *Matcher) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, keys := range m.MatchBatch(events) {
					if !slices.Equal(keys, want[i]) {
						t.Errorf("event %d after mutations: %v, want the compile-time answer %v", i, keys, want[i])
						return
					}
				}
			}
		}(v.NewMatcher())
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

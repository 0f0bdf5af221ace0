package summary

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/workload"
)

// buildRandomSummary inserts n random subscriptions for broker 1, then
// churns a fraction of them (remove) and merges in a second broker's
// summary, so the registry has seen swap-deletes and merge registration.
func buildRandomSummary(t testing.TB, rng *rand.Rand, s *schema.Schema, n int) *Summary {
	t.Helper()
	sm := New(s, interval.Lossy)
	for i := 0; i < n; i++ {
		if err := sm.Insert(subid.ID{Broker: 1, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/5; i++ {
		sm.Remove(subid.ID{Broker: 1, Local: subid.LocalID(rng.Intn(n))})
	}
	other := New(s, interval.Lossy)
	for i := 0; i < n/3; i++ {
		if err := other.Insert(subid.ID{Broker: 2, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sm.MergeEncoded(other.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestMatcherMatchesLegacy is the differential property test: across
// randomized workloads the Matcher must report byte-identical key
// sets and identical MatchCost to the map-based reference
// (reference_test.go), on the counting path and on the engine's
// (MatchKeys, MatchBatch), and those keys must be the ones Algorithm 1
// finds counting every listed id. Most random events miss an attribute some
// subscription names, so most take the restricted walk; the rest take the
// union path.
func TestMatcherMatchesLegacy(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(31))
	events, restricted := 0, 0
	for trial := 0; trial < 6; trial++ {
		sm := buildRandomSummary(t, rng, s, 60+rng.Intn(60))
		m := sm.NewMatcher()
		var drawn []*schema.Event
		for probe := 0; probe < 150; probe++ {
			ev := randomEvent(rng, s)
			drawn = append(drawn, ev)
			events++
			wantKeys, wantCost := sm.referenceMatchKeysWithCost(ev)
			gotKeys, gotCost := m.MatchKeysWithCost(ev)
			if !equalKeys(wantKeys, gotKeys) {
				t.Fatalf("trial %d: keys diverge on %s\nlegacy  %v\nmatcher %v",
					trial, ev.Format(s), wantKeys, gotKeys)
			}
			if wantCost != gotCost {
				t.Fatalf("trial %d: cost diverges on %s\nlegacy  %+v\nmatcher %+v",
					trial, ev.Format(s), wantCost, gotCost)
			}
			if all := sm.unadmittedMatchKeys(ev); !equalKeys(all, wantKeys) {
				t.Fatalf("trial %d: admission changed the keys on %s: %v, counting every id %v",
					trial, ev.Format(s), wantKeys, all)
			}
			if m.admit(ev) {
				restricted++
			}
		}
		requireEngineKeys(t, fmt.Sprintf("trial %d", trial), m, sm, drawn)
		// A matcher made after a mutation (registry growth and a
		// swap-delete) matches the summary as it now stands.
		if err := sm.Insert(subid.ID{Broker: 3, Local: 1}, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
		sm.Remove(subid.ID{Broker: 1, Local: 0})
		m = sm.NewMatcher()
		drawn = drawn[:0]
		for probe := 0; probe < 50; probe++ {
			ev := randomEvent(rng, s)
			drawn = append(drawn, ev)
			events++
			wantKeys := sm.referenceMatchKeys(ev)
			gotKeys, _ := m.MatchKeysWithCost(ev)
			if !equalKeys(wantKeys, gotKeys) {
				t.Fatalf("trial %d post-mutation: keys diverge on %s", trial, ev.Format(s))
			}
		}
		requireEngineKeys(t, fmt.Sprintf("trial %d post-mutation", trial), m, sm, drawn)
	}
	if events < 1000 {
		t.Fatalf("differential test covered only %d events, want ≥1000", events)
	}
	if restricted == 0 || restricted == events {
		t.Fatalf("%d of %d events took the restricted walk; want both paths", restricted, events)
	}
}

// TestMatcherMatchIDs checks the id-reconstructing entry point against
// the reference's ids and c3 masks.
func TestMatcherMatchIDs(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(32))
	sm := buildRandomSummary(t, rng, s, 80)
	m := sm.NewMatcher()
	for probe := 0; probe < 200; probe++ {
		ev := randomEvent(rng, s)
		if want, got := sm.referenceMatch(ev), m.Match(ev); !reflect.DeepEqual(want, got) {
			t.Fatalf("Match diverges on %s:\nlegacy  %v\nmatcher %v", ev.Format(s), want, got)
		}
	}
}

// TestMatchOrderByKey: a view's index order is (mask, key) order, so here,
// where masks interleave keys, the hits in index order are keys 2, 4, 1, 3.
// Match and MatchKeys must still return them by key, with each id's mask,
// on the restricted walk and on the union path.
func TestMatchOrderByKey(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	for local, text := range map[subid.LocalID]string{
		1: `volume > 0`, 2: `price > 0`, 3: `price > 0 && volume > 0`, 4: `price > 0`, 5: `symbol = OTE`,
	} {
		if err := sm.Insert(id(1, local), mustSub(t, s, text)); err != nil {
			t.Fatal(err)
		}
	}
	if v := sm.Compile(); slices.IsSorted(v.keys) {
		t.Fatalf("fixture: index order %v is key order; the test would be vacuous", v.keys)
	}
	priceID, _ := s.ID("price")
	volumeID, _ := s.ID("volume")
	symbolID, _ := s.ID("symbol")
	wantIDs := []subid.ID{
		{Broker: 1, Local: 1, Attrs: subid.MaskOf(s.Len(), int(volumeID))},
		{Broker: 1, Local: 2, Attrs: subid.MaskOf(s.Len(), int(priceID))},
		{Broker: 1, Local: 3, Attrs: subid.MaskOf(s.Len(), int(priceID), int(volumeID))},
		{Broker: 1, Local: 4, Attrs: subid.MaskOf(s.Len(), int(priceID))},
		{Broker: 1, Local: 5, Attrs: subid.MaskOf(s.Len(), int(symbolID))},
	}
	for _, tc := range []struct {
		event      string
		restricted bool
		want       []subid.ID
	}{
		{`price=1 volume=1`, true, wantIDs[:4]},
		{`price=1 volume=1 symbol=OTE`, false, wantIDs},
	} {
		ev := mustEvent(t, s, tc.event)
		m := sm.NewMatcher()
		var wantKeys []uint64
		for _, x := range tc.want {
			wantKeys = append(wantKeys, x.Key())
		}
		if got := m.MatchKeys(ev); !slices.Equal(got, wantKeys) {
			t.Errorf("on %s: MatchKeys = %v, want %v", tc.event, got, wantKeys)
		}
		if m.admit(ev) != tc.restricted {
			t.Errorf("on %s: restricted walk %v, want %v", tc.event, !tc.restricted, tc.restricted)
		}
		if got := m.Match(ev); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("on %s: Match = %v, want %v", tc.event, got, tc.want)
		}
	}
}

// TestMatchKeysOwnerBuckets: MatchKeys puts its hits in key order by
// bucketing them per owner and an insertion pass. Here three owners' ids
// interleave across mask groups, so every bucket holds keys of several
// groups; with one owner id far past the view's key count the hits are
// ordered without buckets, which never grow to that owner. Either way the
// keys equal the reference's, and the owner set is left empty.
func TestMatchKeysOwnerBuckets(t *testing.T) {
	s := stockSchema(t)
	texts := []string{`volume > 0`, `price > 0`, `price > 0 && volume > 0`, `price > 0`}
	ev := mustEvent(t, s, `price=1 volume=1`)
	for _, far := range []subid.BrokerID{2, 1 << 20} {
		sm := New(s, interval.Lossy)
		for _, owner := range []subid.BrokerID{0, far, 1} {
			for local, text := range texts {
				if err := sm.Insert(id(owner, subid.LocalID(local)), mustSub(t, s, text)); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := sm.NewMatcher()
		for rep := 0; rep < 2; rep++ {
			got, want := m.MatchKeys(ev), sm.referenceMatchKeys(ev)
			if len(want) != 3*len(texts) || !slices.Equal(got, want) {
				t.Fatalf("owner %d: MatchKeys = %v, want %v", far, got, want)
			}
			if limit := len(m.v.keys) + 64; len(m.next) > limit {
				t.Fatalf("owner %d: bucket scratch of %d owners, bound %d", far, len(m.next), limit)
			}
			if slices.ContainsFunc(m.owners, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("owner %d: owners %v left set", far, m.owners.Bits())
			}
		}
	}
}

// TestMatchersConcurrent runs one matcher per goroutine, all bound to one
// compiled view, and checks every result against the serial answer. Run
// under -race this is the proof that matchers share nothing writable
// through their view.
func TestMatchersConcurrent(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(33))
	sm := buildRandomSummary(t, rng, s, 120)
	const nEvents = 400
	events := make([]*schema.Event, nEvents)
	want := make([][]uint64, nEvents)
	for i := range events {
		events[i] = randomEvent(rng, s)
		want[i] = sm.referenceMatchKeys(events[i])
	}
	view := sm.Compile()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := view.NewMatcher()
			for rep := 0; rep < 3; rep++ {
				for i := g; i < nEvents; i += 8 {
					got := m.MatchKeys(events[i])
					if !equalKeys(want[i], got) {
						t.Errorf("goroutine %d event %d: got %v want %v", g, i, got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// requireEngineKeys checks the engine's match — MatchKeys per event, and
// MatchBatch over the whole run — against the reference's keys on
// events, then the matcher's resting state. The counting path
// (MatchKeysWithCost) runs a pass of its own before the same fold, so a
// test that checks it alone would not see a fault only the engine's path
// has.
func requireEngineKeys(t testing.TB, when string, m *Matcher, sm *Summary, events []*schema.Event) {
	t.Helper()
	want := make([][]uint64, len(events))
	for i, ev := range events {
		want[i] = sm.referenceMatchKeys(ev)
		if got := m.MatchKeys(ev); !slices.Equal(got, want[i]) {
			t.Fatalf("%s: MatchKeys on %v: %v, reference %v", when, ev.Fields(), got, want[i])
		}
	}
	res := m.MatchBatch(events)
	if len(res) != len(events) {
		t.Fatalf("%s: MatchBatch returned %d results for %d events", when, len(res), len(events))
	}
	for i, keys := range res {
		if !slices.Equal(keys, want[i]) {
			t.Fatalf("%s: MatchBatch event %d (%v): %v, reference %v", when, i, events[i].Fields(), keys, want[i])
		}
	}
	requireScratchZero(t, when+", after the engine's match", m)
}

// requireScratchZero checks the matcher's resting state: every scratch
// set zero. A bit left standing satisfies a later event's attribute for an
// id its value does not satisfy — a false positive of the summary, or,
// beside a miss the bit hides, a match MatchCost does not account for —
// that nothing else would report.
func requireScratchZero(t testing.TB, when string, ms ...*Matcher) {
	t.Helper()
	for mi, m := range ms {
		for w, word := range m.scratch {
			if word != 0 {
				t.Fatalf("%s: matcher %d left scratch word %d at %#x", when, mi, w, word)
			}
		}
	}
}

// scanAdmit is the admission oracle: whether e misses an attribute of v's
// union, and the eligible runs found by testing every group's mask
// against e's attributes, coalesced in index order. A group whose mask is
// empty is never eligible: its ids match nothing.
func scanAdmit(v *View, e *schema.Event) (restricted bool, runs []span) {
	var attrs subid.Mask
	for _, f := range e.Fields() {
		attrs.Set(int(f.Attr))
	}
	if v.union.Within(attrs) {
		return false, nil
	}
	for _, g := range v.groups {
		if g.mask.Count() == 0 || !g.mask.Within(attrs) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].hi == g.lo {
			runs[n-1].hi = g.hi
		} else {
			runs = append(runs, g.span)
		}
	}
	return true, runs
}

// requireAdmit runs m.admit on e and checks its answer, and the runs it
// leaves, against the scanAdmit oracle. It returns admit's answer.
func requireAdmit(t testing.TB, m *Matcher, e *schema.Event) bool {
	t.Helper()
	restricted := m.admit(e)
	wantRestricted, wantRuns := scanAdmit(m.v, e)
	if restricted != wantRestricted || restricted && !slices.Equal(m.runs, wantRuns) {
		t.Fatalf("admit on %v: restricted %v, runs %v; the group scan says %v, %v",
			e.Fields(), restricted, m.runs, wantRestricted, wantRuns)
	}
	return restricted
}

// rowIDs returns the rows of v as id lists, each bitset row expanded.
func rowIDs(v *View, rows [][]uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for r, ids := range rows {
		if len(ids) != v.words {
			out[r] = ids
			continue
		}
		for w, word := range ids {
			for ; word != 0; word &= word - 1 {
				out[r] = append(out[r], uint64(w<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	return out
}

// listsRepeat reports whether one id occurs in two of the lists.
func listsRepeat(lists [][]uint64) bool {
	seen := make(map[uint64]struct{})
	for _, ids := range lists {
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				return true
			}
			seen[id] = struct{}{}
		}
	}
	return false
}

// TestMatcherRepeatedIDs builds, one shape at a time, summaries in which a
// single query reaches one id through two id lists of the same attribute.
// The id must be counted once for that attribute — twice overshoots its c3
// target and loses a match — so keys and every MatchCost field must equal
// the reference, through a matcher bound to the compiled view, on each
// event as written (missing attributes the
// view's subscriptions name, so the walk is cut to eligible runs) and with
// every missing attribute added (the union path). Each case first proves it
// is not vacuous: the compiled set really lists the id twice for the probe
// value, says it may, and still lists it twice once cut to the probe's
// runs.
func TestMatcherRepeatedIDs(t *testing.T) {
	s := stockSchema(t)
	bystanders := []string{
		`price > 1`, `price < 100 && volume < 50`, `symbol = OTE`, `symbol = "O*"`,
		`exchange = NYSE && price >= 2`, `volume = 4`, `exchange != LSE`, `symbol != IBM && volume > 1`,
	}
	cases := []struct {
		name   string
		sub    string   // the subscription whose id repeats
		attr   string   // the attribute whose query repeats the id
		event  string   // an event that matches sub and repeats its id
		events []string // further probes around the repeated rows
	}{
		{
			name: "≠ beside a range", sub: `price != 5 && price > 3 && volume < 9`,
			attr: "price", event: `price=7 volume=2`,
			events: []string{`price=5 volume=2`, `price=3 volume=2`, `price=7`, `price=7 volume=20`},
		},
		{
			name: "two ≠ on one attribute", sub: `price != 5 && price != 6`,
			attr: "price", event: `price=7`,
			events: []string{`price=5`, `price=6`, `price=0 volume=3`},
		},
		{
			name: "prefix row and suffix row", sub: `symbol = "OT*" && symbol = "*TE" && price > 3`,
			attr: "symbol", event: `symbol=OTE price=7`,
			events: []string{`symbol=OTX price=7`, `symbol=XTE price=7`, `symbol=OTE`, `symbol=OTTE price=9`},
		},
		{
			name: "string = beside ≠", sub: `exchange = NASDAQ && exchange != LSE`,
			attr: "exchange", event: `exchange=NASDAQ`,
			events: []string{`exchange=LSE`, `exchange=NYSE`, `exchange=NASDAQ price=2`},
		},
		{
			name: "arithmetic = beside ≠", sub: `volume = 6 && volume != 7 && price > 0`,
			attr: "volume", event: `volume=6 price=1`,
			events: []string{`volume=7 price=1`, `volume=5 price=1`, `volume=6`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sm := New(s, interval.Lossy)
			repeated := id(3, 1)
			if err := sm.Insert(repeated, mustSub(t, s, tc.sub)); err != nil {
				t.Fatal(err)
			}
			for i, text := range bystanders {
				if err := sm.Insert(id(subid.BrokerID(i%5), subid.LocalID(10+i)), mustSub(t, s, text)); err != nil {
					t.Fatal(err)
				}
			}

			probe := mustEvent(t, s, tc.event)
			attr, _ := s.ID(tc.attr)
			val, _ := probe.Value(attr)
			v := sm.Compile()
			var lists [][]uint64
			if val.Arithmetic() {
				lists = rowIDs(v, v.attr(attr).aacs.AppendLists(nil, val.Num))
			} else {
				lists = rowIDs(v, v.attr(attr).sacs.AppendLists(nil, val.Str, schema.HashString(val.Str)))
			}
			if !listsRepeat(lists) {
				t.Fatalf("fixture is vacuous: %s=%v consults %v, no id twice", tc.attr, val, lists)
			}
			if !slices.Contains(sm.referenceMatchKeys(probe), repeated.Key()) {
				t.Fatalf("fixture: %s does not match the repeated subscription", tc.event)
			}
			bound := v.NewMatcher()
			if !bound.admit(probe) || !listsRepeat(bound.cut(lists)) {
				t.Fatalf("fixture: %s does not repeat the id inside its eligible runs %v", tc.event, bound.runs)
			}

			events := []*schema.Event{probe}
			for _, text := range tc.events {
				events = append(events, mustEvent(t, s, text))
			}
			rng := rand.New(rand.NewSource(35))
			for i := 0; i < 40; i++ {
				events = append(events, randomEvent(rng, s))
			}
			for _, written := range events {
				for coverage, ev := range map[string]*schema.Event{"as written": written, "all attributes": withAllAttrs(t, s, written)} {
					wantKeys, wantCost := sm.referenceMatchKeysWithCost(ev)
					gotKeys, gotCost := bound.MatchKeysWithCost(ev)
					if !slices.Equal(gotKeys, wantKeys) || gotCost != wantCost {
						t.Fatalf("on %s (%s):\nreference %v %+v\nmatcher   %v %+v",
							ev.Format(s), coverage, wantKeys, wantCost, gotKeys, gotCost)
					}
					requireScratchZero(t, "after "+ev.Format(s), bound)
				}
			}
		})
	}
}

// withAllAttrs returns e with every attribute of the schema it lacks added,
// at a value no fixture names, so the event covers any view's union.
func withAllAttrs(t testing.TB, s *schema.Schema, e *schema.Event) *schema.Event {
	t.Helper()
	fields := slices.Clone(e.Fields())
	for a := schema.AttrID(0); int(a) < s.Len(); a++ {
		if e.Has(a) {
			continue
		}
		v := schema.StringValue("unnamed")
		switch s.TypeOf(a) {
		case schema.TypeInt:
			v = schema.IntValue(-99)
		case schema.TypeDate:
			v = schema.Value{Type: schema.TypeDate, Num: -99}
		case schema.TypeFloat:
			v = schema.FloatValue(-99)
		}
		fields = append(fields, schema.Field{Attr: a, Value: v})
	}
	out, err := schema.EventFromFields(s, fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMatcherCountersReturnToZero pins the invariant the word pass rests
// on: after every match, every scratch set is zero — through a seeded
// interleaving of inserts, removals and merges, on a matcher made after
// each mutation and reused until the next (the view growing, shrinking and
// being recompiled, dense indices changing meaning each time), and on a
// matcher bound to a snapshot of that summary, leased again and again.
func TestMatcherCountersReturnToZero(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(36))
	sm := New(s, interval.Lossy)
	var current *Matcher // bound to the summary as it stands; nil after a mutation
	nextLocal := subid.LocalID(0)
	insert := func(target *Summary, broker subid.BrokerID) {
		nextLocal++
		if err := target.Insert(id(broker, nextLocal), randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		insert(sm, 1)
	}
	matched := 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			insert(sm, subid.BrokerID(1+rng.Intn(3)))
			current = nil
		case op < 5 && len(sm.keys) > 10:
			sm.RemoveKey(sm.keys[rng.Intn(len(sm.keys))])
			current = nil
		case op == 5:
			other := New(s, interval.Lossy)
			for i := 0; i < 1+rng.Intn(30); i++ {
				insert(other, 7)
			}
			if err := sm.MergeEncoded(other.Encode(nil)); err != nil {
				t.Fatal(err)
			}
			current = nil
		case op == 6:
			// A snapshot, as a broker publishes one: a matcher bound to a
			// fresh compile, reused across leases.
			m := sm.Compile().NewMatcher()
			for lease := 0; lease < 3; lease++ {
				batch := []*schema.Event{randomEvent(rng, s), randomEvent(rng, s), randomEvent(rng, s), randomEvent(rng, s)}
				for i, keys := range m.MatchBatch(batch) {
					if want := sm.referenceMatchKeys(batch[i]); !slices.Equal(keys, want) {
						t.Fatalf("step %d lease %d: batch matched %v, reference %v", step, lease, keys, want)
					}
				}
				requireScratchZero(t, fmt.Sprintf("step %d lease %d, after MatchBatch", step, lease), m)
				ev := randomEvent(rng, s)
				if got, want := m.MatchKeys(ev), sm.referenceMatchKeys(ev); !slices.Equal(got, want) {
					t.Fatalf("step %d lease %d: matched %v, reference %v", step, lease, got, want)
				}
				requireScratchZero(t, fmt.Sprintf("step %d lease %d, after MatchKeys", step, lease), m)
			}
		default:
			if current == nil {
				current = sm.NewMatcher()
			}
			ev := randomEvent(rng, s)
			got, want := current.MatchKeys(ev), sm.referenceMatchKeys(ev)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: matched %v, reference %v", step, got, want)
			}
			matched += len(want)
			requireScratchZero(t, fmt.Sprintf("step %d", step), current)
		}
	}
	if matched == 0 {
		t.Fatalf("no event matched anything; the invariant was never at risk")
	}
}

// TestMatcherMultiWord is the differential test of the word pass over
// views of many words: on seeded random summaries of 64, 65 and 3 000 ids,
// a matcher bound to the compiled view returns the reference's keys and MatchCost on events as drawn (most miss
// an attribute some subscription names, so the pass is cut to eligible
// runs) and on the same events with every attribute added (the union
// path), and leave every scratch set zero; MatchKeys, and MatchBatch over
// all of a view's events, return the reference's keys too; admission
// leaves the runs the per-group mask scan finds. FuzzMatchKeys' summaries
// fit one word, where every row is a bitset; here rows shorter than the
// view's word count stay lists. The test fails unless the draw reached each shape the pass
// distinguishes: an attribute consulting one bitset row, several, and
// bitset and list rows together; groups straddling a word boundary; two
// eligible runs sharing one word; a view of more than 64 groups, whose
// group bitsets span two words, with an eligible group past the first.
func TestMatcherMultiWord(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(38))
	// A ≠ entry is consulted by every value but its own, so on an attribute
	// that has one no query consults a single row: keep high and low free
	// of them.
	high, _ := s.ID("high")
	low, _ := s.ID("low")
	noNE := func(sub *schema.Subscription) bool {
		for _, c := range sub.Constraints {
			if c.Op == schema.OpNE && (c.Attr == high || c.Attr == low) {
				return false
			}
		}
		return true
	}
	var oneBitset, bitsets, mixed, straddling, sharedWord, restricted, union, wideViews, farEligible int
	for _, n := range []int{64, 65, 3000} {
		var drawnRun []*schema.Event // each probe's two events, for the engine's path
		sm := New(s, interval.Lossy)
		for i := 0; i < n; i++ {
			sub := randomSubscription(rng, s)
			for !noNE(sub) {
				sub = randomSubscription(rng, s)
			}
			if err := sm.Insert(id(subid.BrokerID(i%5), subid.LocalID(i)), sub); err != nil {
				t.Fatal(err)
			}
		}
		v := sm.Compile()
		if v.NumSubscriptions() != n || v.words != (n+63)/64 {
			t.Fatalf("%d ids compiled to %d ids in %d-word bitsets", n, v.NumSubscriptions(), v.words)
		}
		for _, g := range v.groups {
			if g.lo>>6 != (g.hi-1)>>6 {
				straddling++
			}
		}
		if len(v.groups) > 64 {
			wideViews++
		}
		bound := v.NewMatcher()
		for probe := 0; probe < 300; probe++ {
			drawn := randomEvent(rng, s)
			drawnRun = append(drawnRun, drawn, withAllAttrs(t, s, drawn))
			for _, ev := range drawnRun[len(drawnRun)-2:] {
				wantKeys, wantCost := sm.referenceMatchKeysWithCost(ev)
				gotKeys, gotCost := bound.MatchKeysWithCost(ev)
				if !slices.Equal(gotKeys, wantKeys) || gotCost != wantCost {
					t.Fatalf("%d ids on %s:\nreference %v %+v\nmatcher   %v %+v",
						n, ev.Format(s), wantKeys, wantCost, gotKeys, gotCost)
				}
				requireScratchZero(t, fmt.Sprintf("%d ids, after %s", n, ev.Format(s)), bound)
				if !requireAdmit(t, bound, ev) {
					union++
				} else {
					restricted++
					for r := 1; r < len(bound.runs); r++ {
						if (bound.runs[r-1].hi-1)>>6 == bound.runs[r].lo>>6 {
							sharedWord++
						}
					}
					if n := len(bound.runs); n > 0 && len(v.groups) > 64 && bound.runs[n-1].hi > v.groups[64].lo {
						farEligible++
					}
				}
				requireScratchZero(t, fmt.Sprintf("%d ids, after admitting %s", n, ev.Format(s)), bound)
				for _, f := range ev.Fields() {
					var rows [][]uint64
					if a := v.attr(f.Attr); a != nil && a.aacs != nil && f.Value.Arithmetic() {
						rows = a.aacs.AppendLists(nil, f.Value.Num)
					} else if a != nil && a.sacs != nil && !f.Value.Arithmetic() {
						rows = a.sacs.AppendLists(nil, f.Value.Str, f.StrHash())
					}
					nb := 0
					for _, ids := range rows {
						if len(ids) == v.words {
							nb++
						}
					}
					switch {
					case nb == 1 && len(rows) == 1:
						oneBitset++
					case nb > 1 && nb == len(rows):
						bitsets++
					case nb > 0 && nb < len(rows):
						mixed++
					}
				}
			}
		}
		requireEngineKeys(t, fmt.Sprintf("%d ids", n), bound, sm, drawnRun)
	}
	t.Logf("attributes with one bitset row %d, several %d, bitsets and lists %d; %d straddling groups; "+
		"%d shared words; %d restricted and %d union events; %d views of over 64 groups, "+
		"%d events eligible past group 64", oneBitset, bitsets, mixed, straddling, sharedWord, restricted, union,
		wideViews, farEligible)
	if oneBitset == 0 || bitsets == 0 || mixed == 0 || straddling == 0 || sharedWord == 0 || restricted == 0 || union == 0 {
		t.Fatal("the draw missed a shape the word pass distinguishes")
	}
	if wideViews == 0 || farEligible == 0 {
		t.Fatal("the draw missed a shape admission distinguishes")
	}
}

// TestMatcherZeroAllocs asserts the acceptance criterion: once warmed up,
// a matcher does not allocate per matched event — plain, on the merge
// path, on the restricted walk, and for
// the eight-event run a broker's lease matches. Each case runs the fixture
// of the benchmark it names.
func TestMatcherZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	for _, tc := range []struct {
		name    string
		fixture func(testing.TB) (*Matcher, []*schema.Event)
		batch   bool
	}{
		{"MatchKeys", matcherFixture, false},
		{"MatchKeysRepeats", repeatsFixture, false},
		{"MatchKeysRestricted", restrictedFixture, false},
		{"MatchBatch", matcherFixture, true},
		{"MatchKeysHub", func(tb testing.TB) (*Matcher, []*schema.Event) { return hubFixture(tb, fanoutShape(), 2400) }, false},
		{"MatchKeysHub24k", func(tb testing.TB) (*Matcher, []*schema.Event) {
			return hubFixture(tb, workload.DefaultConfig(), 24000)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, events := tc.fixture(t)
			i := 0
			match := func() {
				m.MatchKeys(events[i%len(events)])
				i++
			}
			if tc.batch {
				run := events[:8]
				m.MatchBatch(run) // warm the batch scratch
				match = func() { m.MatchBatch(run) }
			}
			if avg := testing.AllocsPerRun(1000, match); avg != 0 {
				t.Fatalf("%s allocates %.2f objects per call, want 0", tc.name, avg)
			}
		})
	}
}

func equalKeys(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// warmMatcher runs every event through m once so its scratch reaches
// steady-state capacity, failing when nothing matches: an allocation
// assertion over a workload that never matches would be vacuous.
func warmMatcher(tb testing.TB, m *Matcher, events []*schema.Event) {
	tb.Helper()
	matched := 0
	for _, ev := range events {
		matched += len(m.MatchKeys(ev))
	}
	if matched == 0 {
		tb.Fatal("fixture matches nothing; the allocation assertion would be vacuous")
	}
}

// matcherFixture builds the warmed matcher + event set of the
// summary-match hot path. TestMatcherZeroAllocs holds it at 0 allocations
// per event.
func matcherFixture(tb testing.TB) (*Matcher, []*schema.Event) {
	tb.Helper()
	s := stockSchema(tb)
	rng := rand.New(rand.NewSource(34))
	sm := buildRandomSummary(tb, rng, s, 150)
	events := make([]*schema.Event, 64)
	for i := range events {
		events[i] = randomEvent(rng, s)
	}
	m := sm.NewMatcher()
	warmMatcher(tb, m, events)
	return m, events
}

// repeatsFixture is the matcher's other path: every subscription
// constrains price twice (a range and a ≠) and symbol twice (a prefix and
// a suffix), so each event's price and symbol queries consult several
// rows that list one id twice, and their sets are built in scratch. The
// scratch and the row headers are the matcher's own, so
// TestMatcherZeroAllocs holds this path at 0 allocations too.
func repeatsFixture(tb testing.TB) (*Matcher, []*schema.Event) {
	tb.Helper()
	s := stockSchema(tb)
	sm := New(s, interval.Lossy)
	for i := 0; i < 150; i++ {
		text := fmt.Sprintf(`price > %d && price != %d && symbol = "OT*" && symbol = "*E"`, i%10, 30+i%7)
		if err := sm.Insert(id(1, subid.LocalID(i)), mustSub(tb, s, text)); err != nil {
			tb.Fatal(err)
		}
	}
	events := make([]*schema.Event, 64)
	for i := range events {
		events[i] = mustEvent(tb, s, fmt.Sprintf(`price=%d symbol=OT%dE volume=3`, 5+i%20, i%4))
	}
	v := sm.Compile()
	priceID, _ := s.ID("price")
	symbolID, _ := s.ID("symbol")
	for _, ev := range events {
		price, _ := ev.Value(priceID)
		symbol, _ := ev.Value(symbolID)
		if !listsRepeat(rowIDs(v, v.attr(priceID).aacs.AppendLists(nil, price.Num))) ||
			!listsRepeat(rowIDs(v, v.attr(symbolID).sacs.AppendLists(nil, symbol.Str, schema.HashString(symbol.Str)))) {
			tb.Fatalf("fixture: %s does not list an id twice on both attributes", ev.Format(s))
		}
	}
	m := sm.NewMatcher()
	warmMatcher(tb, m, events)
	return m, events
}

// restrictedFixture is the restricted walk: the summary of matcherFixture,
// probed only with events that miss an attribute its subscriptions name and
// cover at least one group, so every event is cut to eligible runs.
func restrictedFixture(tb testing.TB) (*Matcher, []*schema.Event) {
	tb.Helper()
	s := stockSchema(tb)
	rng := rand.New(rand.NewSource(37))
	sm := buildRandomSummary(tb, rng, s, 150)
	m := sm.NewMatcher()
	var events []*schema.Event
	for draws := 0; len(events) < 64; draws++ {
		if draws == 100000 {
			tb.Fatalf("fixture: %d of %d drawn events take the restricted walk", len(events), draws)
		}
		ev := randomEvent(rng, s)
		if m.admit(ev) && len(m.runs) > 0 {
			events = append(events, ev)
		}
	}
	warmMatcher(tb, m, events)
	return m, events
}

// fanoutShape is the generator shape of the fanout-cw24 workload: ten
// attributes, three per subscription, all ten in every event.
func fanoutShape() workload.Config {
	c := workload.DefaultConfig()
	c.AttrsPerEvent, c.AttrsPerSub = 10, 3
	return c
}

// hubFixture is the view a CW24 hub matches against: the subscriptions of
// 24 brokers, subs in all, drawn by the workload generator in shape cfg,
// with events of that shape at the repository benchmark's hit rate. In
// the fanout shape every event covers the view's union, and each
// attribute's value consults about one long row; in the Table 2 shape
// (five of ten attributes per subscription and per event) an event covers
// about one mask group.
func hubFixture(tb testing.TB, cfg workload.Config, subs int) (*Matcher, []*schema.Event) {
	tb.Helper()
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sm := New(gen.Schema(), interval.Lossy)
	for i := 0; i < subs; i++ {
		if err := sm.Insert(id(subid.BrokerID(i%24), subid.LocalID(i/24)), gen.Subscription()); err != nil {
			tb.Fatal(err)
		}
	}
	events := make([]*schema.Event, 256)
	for i := range events {
		events[i] = gen.Event(0.9)
	}
	m := sm.NewMatcher()
	warmMatcher(tb, m, events)
	return m, events
}

// benchmarkMatchKeys times the paths TestMatcherZeroAllocs holds at zero
// allocations, one benchmark per fixture.
func benchmarkMatchKeys(b *testing.B, m *Matcher, events []*schema.Event) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchKeys(events[i%len(events)])
	}
}

func BenchmarkMatcherMatchKeys(b *testing.B) {
	m, events := matcherFixture(b)
	benchmarkMatchKeys(b, m, events)
}

func BenchmarkMatcherMatchKeysRepeats(b *testing.B) {
	m, events := repeatsFixture(b)
	benchmarkMatchKeys(b, m, events)
}

func BenchmarkMatcherMatchKeysRestricted(b *testing.B) {
	m, events := restrictedFixture(b)
	benchmarkMatchKeys(b, m, events)
}

func BenchmarkMatcherMatchKeysHub(b *testing.B) {
	m, events := hubFixture(b, fanoutShape(), 2400)
	benchmarkMatchKeys(b, m, events)
}

func BenchmarkMatcherMatchKeysHub24k(b *testing.B) {
	m, events := hubFixture(b, workload.DefaultConfig(), 24000)
	benchmarkMatchKeys(b, m, events)
}

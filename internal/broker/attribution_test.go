package broker

import (
	"math/rand"
	"testing"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// TestFPAttributionChargesExactTriple is the attribution acceptance
// test: a summary-admitted event that fails exact match must charge the
// false positive to precisely the (attribute, operator-class,
// owner-broker) triple of the first failing constraint, and a true
// delivery must credit precision on the constrained attributes.
func TestFPAttributionChargesExactTriple(t *testing.T) {
	s := testSchema(t)
	reg := metrics.NewRegistry()
	attrib := NewFPAttributor(s, reg, nil, 16)
	b, err := New(Config{ID: 2, Schema: s, Mode: interval.Lossy, NumBrokers: 4, Attribution: attrib})
	if err != nil {
		t.Fatal(err)
	}
	// The lossy fold that creates summary false positives (Section 3.1):
	// subA's range row (100, ∞) on price covers subB's equality point
	// 150, so subB's id is folded into the range row and any price above
	// 100 admits subB. An OTE/200 event then reaches c3 for subB alone —
	// subA's symbol row is eq AAA — and fails exact match on subB's
	// price constraint: the charge must be exactly (price, eq, broker 2).
	subA, err := schema.ParseSubscription(s, `symbol = AAA && price > 100`)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := schema.ParseSubscription(s, `symbol = OTE && price = 150`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(subA, noDeliver); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(subB, noDeliver); err != nil {
		t.Fatal(err)
	}

	ev, err := schema.ParseEvent(s, "symbol=OTE price=200")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.MatchMerged(ev)); got != 1 {
		t.Fatalf("merged summary admitted %d candidates, want 1 (the folded eq row)", got)
	}
	if n := b.DeliverExact(ev); n != 0 {
		t.Fatalf("false positive delivered %d times", n)
	}
	priceID, ok := s.ID("price")
	if !ok {
		t.Fatal("schema lost the price attribute")
	}
	rep := attrib.Report(0)
	if rep.Total != 1 || len(rep.TopK) != 1 {
		t.Fatalf("report after one FP event: total=%d topK=%+v", rep.Total, rep.TopK)
	}
	got := rep.TopK[0]
	if got.Attr != "price" || got.AttrID != int(priceID) || got.Class != "eq" || got.Owner != 2 {
		t.Fatalf("charged triple = %+v, want (price, eq, owner 2)", got)
	}
	if got.Count != 1 || got.ErrBound != 0 {
		t.Fatalf("count/err = %d/%d, want 1/0", got.Count, got.ErrBound)
	}

	// A true delivery credits every constrained attribute; precision for
	// price becomes 1/(1+1) with one FP and one delivery against it.
	ev3, err := schema.ParseEvent(s, "symbol=OTE price=150")
	if err != nil {
		t.Fatal(err)
	}
	if n := b.DeliverExact(ev3); n != 1 {
		t.Fatalf("true match delivered %d times, want 1", n)
	}
	rep = attrib.Report(0)
	var price *AttrPrecision
	for i := range rep.Attrs {
		if rep.Attrs[i].Attr == "price" {
			price = &rep.Attrs[i]
		}
	}
	if price == nil {
		t.Fatalf("no precision row for price: %+v", rep.Attrs)
	}
	if price.Delivered != 1 || price.FalsePos != 1 || price.Precision != 0.5 {
		t.Fatalf("price precision = %+v, want delivered 1, fp 1, precision 0.5", price)
	}

	// Registry counters mirror the tallies under per-attribute labels.
	m := reg.Map()
	if m["fp_attr_false_positives{price}"] != 1 || m["fp_attr_deliveries{price}"] != 1 {
		t.Fatalf("registry rows: fp=%v del=%v, want 1/1",
			m["fp_attr_false_positives{price}"], m["fp_attr_deliveries{price}"])
	}
}

// TestFPAttributionPrefixFold is the string-side twin: an equality row
// folded into a covering prefix row admits events the equality never
// matches, and the charge names the symbol attribute under the eq class
// with the owning broker.
func TestFPAttributionPrefixFold(t *testing.T) {
	s := testSchema(t)
	attrib := NewFPAttributor(s, nil, nil, 16)
	b, err := New(Config{ID: 3, Schema: s, Mode: interval.Lossy, NumBrokers: 4, Attribution: attrib})
	if err != nil {
		t.Fatal(err)
	}
	subE, err := schema.ParseSubscription(s, `symbol >* OT && price < 10`)
	if err != nil {
		t.Fatal(err)
	}
	subF, err := schema.ParseSubscription(s, `symbol = OTE && price > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(subE, noDeliver); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(subF, noDeliver); err != nil {
		t.Fatal(err)
	}
	// symbol=OTX admits subF through the folded prefix-OT row; price=200
	// rules subE out (its price row is (-∞, 10)), so subF is the sole
	// candidate and fails on its symbol equality.
	ev, err := schema.ParseEvent(s, "symbol=OTX price=200")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.MatchMerged(ev)); got != 1 {
		t.Fatalf("merged summary admitted %d candidates, want 1", got)
	}
	if n := b.DeliverExact(ev); n != 0 {
		t.Fatalf("false positive delivered %d times", n)
	}
	symbolID, _ := s.ID("symbol")
	rep := attrib.Report(0)
	if len(rep.TopK) != 1 {
		t.Fatalf("topK = %+v, want one entry", rep.TopK)
	}
	got := rep.TopK[0]
	if got.Attr != "symbol" || got.AttrID != int(symbolID) || got.Class != "eq" || got.Owner != 3 {
		t.Fatalf("charged triple = %+v, want (symbol, eq, owner 3)", got)
	}
}

// TestFPAttributionStaleCharges covers the two "stale" paths: a
// candidate key with no live subscription behind it, and a false
// positive with no local candidate at all (the sender's view of this
// broker was stale) — both charge the no-attribute sentinel.
func TestFPAttributionStaleCharges(t *testing.T) {
	s := testSchema(t)
	attrib := NewFPAttributor(s, nil, nil, 16)
	b, err := New(Config{ID: 1, Schema: s, Mode: interval.Lossy, NumBrokers: 2, Attribution: attrib})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	// No subscriptions at all: DeliverExact finds no candidates, so the
	// charge is (no attribute, stale, self).
	if n := b.DeliverExact(ev); n != 0 {
		t.Fatalf("delivered %d on an empty broker", n)
	}
	rep := attrib.Report(0)
	if len(rep.TopK) != 1 {
		t.Fatalf("topK = %+v, want one stale entry", rep.TopK)
	}
	e := rep.TopK[0]
	if e.Attr != "-" || e.AttrID != int(FPNoAttr) || e.Class != "stale" || e.Owner != 1 {
		t.Fatalf("stale charge = %+v, want (-, stale, owner 1)", e)
	}
}

// TestFPAttributorSpaceSavingBound exercises eviction: with k=2, a
// third distinct triple evicts the smallest and inherits its count as
// the documented error bound, keeping space bounded while the heavy
// hitter stays exact.
func TestFPAttributorSpaceSavingBound(t *testing.T) {
	s := testSchema(t)
	a := NewFPAttributor(s, nil, nil, 2)
	priceID, _ := s.ID("price")
	symbolID, _ := s.ID("symbol")
	for i := 0; i < 5; i++ {
		a.ObserveFP(priceID, FPClassRange, 0) // heavy hitter
	}
	a.ObserveFP(symbolID, FPClassEq, 0)   // light entry, count 1
	a.ObserveFP(symbolID, FPClassGlob, 1) // evicts the light entry
	rep := a.Report(0)
	if rep.Total != 7 {
		t.Fatalf("total = %d, want 7", rep.Total)
	}
	if len(rep.TopK) != 2 {
		t.Fatalf("topK size = %d, want 2 (bounded)", len(rep.TopK))
	}
	if top := rep.TopK[0]; top.Class != "range" || top.Count != 5 || top.ErrBound != 0 {
		t.Fatalf("heavy hitter = %+v, want exact count 5", top)
	}
	if ev := rep.TopK[1]; ev.Class != "glob" || ev.Count != 2 || ev.ErrBound != 1 {
		t.Fatalf("evictor = %+v, want count 2 with error bound 1", ev)
	}
	// Nil attributor is valid everywhere.
	var nilA *FPAttributor
	nilA.ObserveFP(priceID, FPClassRange, 0)
	nilA.CreditDelivery(subid.Mask{})
	if r := nilA.Report(3); r.Total != 0 || len(r.TopK) != 0 {
		t.Fatalf("nil attributor reported %+v", r)
	}
}

// TestFPAttributorSpaceSavingInvariants drives a skewed random triple
// stream through a small table and checks, after every observation, what
// space-saving promises whichever minimum an eviction picks: the counts
// sum to the observations, a tracked triple's true frequency lies in
// [count-err, count], an untracked one's is at most the smallest count —
// and that the table and its slot index agree.
func TestFPAttributorSpaceSavingInvariants(t *testing.T) {
	s := testSchema(t)
	priceID, _ := s.ID("price")
	const k = 8
	a := NewFPAttributor(s, nil, nil, k)
	rng := rand.New(rand.NewSource(9))
	truth := make(map[FPKey]int64)
	for n := int64(1); n <= 5000; n++ {
		owner := subid.BrokerID(rng.Intn(4)) // heavy hitters
		if rng.Intn(3) == 0 {
			owner = subid.BrokerID(4 + rng.Intn(60)) // a long tail that keeps evicting
		}
		a.ObserveFP(priceID, FPClassRange, owner)
		truth[FPKey{Attr: priceID, Class: FPClassRange, Owner: owner}]++

		if len(a.top) > k || len(a.pos) != len(a.top) {
			t.Fatalf("after %d: %d entries, %d indexed, bound %d", n, len(a.top), len(a.pos), k)
		}
		var sum int64
		least := a.top[0].count
		for i, e := range a.top {
			sum += e.count
			least = min(least, e.count)
			if a.pos[e.key.packed()] != i {
				t.Fatalf("after %d: index says %v is at %d, found at %d", n, e.key, a.pos[e.key.packed()], i)
			}
			if tc := truth[e.key]; tc > e.count || tc < e.count-e.err {
				t.Fatalf("after %d: %v true count %d outside [%d, %d]", n, e.key, tc, e.count-e.err, e.count)
			}
		}
		if sum != n {
			t.Fatalf("after %d: counts sum to %d", n, sum)
		}
		for key, tc := range truth {
			if _, tracked := a.pos[key.packed()]; !tracked && tc > least {
				t.Fatalf("after %d: untracked %v has true count %d above the minimum %d", n, key, tc, least)
			}
		}
	}
}

// TestFPAttributorJournalsAdmissionsOnly pins the journal-thrash fix: a
// triple is journaled when it is first admitted while the top-K has room;
// once the table is full, triples swapping in and out are counted in
// fp_attr_evictions and write nothing, so a wide triple mix cannot flush
// the bounded flight ring.
func TestFPAttributorJournalsAdmissionsOnly(t *testing.T) {
	s := testSchema(t)
	reg := metrics.NewRegistry()
	rec := flight.NewRecorder(1 << 16)
	a := NewFPAttributor(s, reg, rec, 2)
	priceID, _ := s.ID("price")
	const rounds = 100
	for i := 0; i < rounds; i++ {
		// Four triples rotating through two slots: every observation after
		// the first two evicts.
		a.ObserveFP(priceID, FPClassRange, subid.BrokerID(i%4))
	}
	journaled := 0
	for _, r := range rec.Records() {
		if r.Type == flight.EvFPAttribution {
			journaled++
		}
	}
	if journaled != 2 {
		t.Fatalf("journaled %d attribution records, want 2 (one per admission)", journaled)
	}
	if got := reg.Map()["fp_attr_evictions"]; got != rounds-2 {
		t.Fatalf("fp_attr_evictions = %v, want %d", got, rounds-2)
	}
	if rep := a.Report(0); rep.Total != rounds || len(rep.TopK) != 2 {
		t.Fatalf("report total %d / %d entries, want %d / 2", rep.Total, len(rep.TopK), rounds)
	}
}

// attribMask builds an attributor and a subscription attribute mask for
// the delivery-credit hot path.
func attribMask(t testing.TB) (*FPAttributor, subid.Mask) {
	t.Helper()
	s := testSchema(t)
	reg := metrics.NewRegistry()
	a := NewFPAttributor(s, reg, nil, 16)
	br, err := New(Config{ID: 0, Schema: s, Mode: interval.Lossy, NumBrokers: 1, Attribution: a})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := schema.ParseSubscription(s, `symbol = OTE && price > 100`)
	if err != nil {
		t.Fatal(err)
	}
	id, err := br.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	return a, id.Attrs
}

// TestAttributionZeroAllocs holds both attribution hot paths at zero
// allocations: crediting a delivery (a manual bit-walk over the c3 mask
// plus atomic adds) and charging a false positive once its triple is
// established in the top-K (the common case under a sustained
// over-approximation).
func TestAttributionZeroAllocs(t *testing.T) {
	a, mask := attribMask(t)
	if avg := testing.AllocsPerRun(1000, func() { a.CreditDelivery(mask) }); avg != 0 {
		t.Errorf("CreditDelivery allocates %.2f objects per call, want 0", avg)
	}
	priceID, _ := testSchema(t).ID("price")
	a.ObserveFP(priceID, FPClassRange, 0) // establish the bucket
	if avg := testing.AllocsPerRun(1000, func() { a.ObserveFP(priceID, FPClassRange, 0) }); avg != 0 {
		t.Errorf("steady-state ObserveFP allocates %.2f objects per call, want 0", avg)
	}
}

// BenchmarkCreditDelivery is the delivery-credit hot path
// TestAttributionZeroAllocs holds at zero allocations.
func BenchmarkCreditDelivery(b *testing.B) {
	a, mask := attribMask(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CreditDelivery(mask)
	}
}

// BenchmarkObserveFPSteadyState is the established-triple false-positive
// charge TestAttributionZeroAllocs holds at zero allocations.
func BenchmarkObserveFPSteadyState(b *testing.B) {
	a, _ := attribMask(b)
	priceID, _ := testSchema(b).ID("price")
	a.ObserveFP(priceID, FPClassRange, 0) // establish the bucket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ObserveFP(priceID, FPClassRange, 0)
	}
}

// BenchmarkObserveFPEvicting is the other steady state: the table is full
// and four times as many triples rotate through it, so every observation
// evicts the current minimum.
func BenchmarkObserveFPEvicting(b *testing.B) {
	s := testSchema(b)
	const k = 64
	a := NewFPAttributor(s, metrics.NewRegistry(), nil, k)
	priceID, _ := s.ID("price")
	for i := 0; i < 4*k; i++ {
		a.ObserveFP(priceID, FPClassRange, subid.BrokerID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ObserveFP(priceID, FPClassRange, subid.BrokerID(i%(4*k)))
	}
}

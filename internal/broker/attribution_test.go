package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// collectExactTwoPass is the owner step as it was before the charge was
// fused into the exact pass, kept as the differential oracle of
// collectExact: Subscription.Matches decides each candidate, and a record
// with no hit walks the candidates a second time for the first failing
// constraint, charging ref.
func collectExactTwoPass(b *Broker, ev *schema.Event, keys []uint64, ref *FPAttributor) []*subEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	self := subid.BrokerID(b.id)
	var hits []*subEntry
	for _, key := range keys {
		owner, local := subid.KeyParts(key)
		if owner != self {
			continue
		}
		if e, ok := b.subs[local]; ok && e.sub.Matches(ev) {
			hits = append(hits, e)
		}
	}
	if len(hits) > 0 {
		return hits
	}
	charged := false
	for _, key := range keys {
		owner, local := subid.KeyParts(key)
		if owner != self {
			continue
		}
		e, ok := b.subs[local]
		if !ok {
			ref.ObserveFP(FPNoAttr, FPClassStale, owner)
			charged = true
			continue
		}
		for _, c := range e.sub.Constraints {
			v, present := ev.Value(c.Attr)
			if !present || !c.Satisfied(v) {
				ref.ObserveFP(c.Attr, ClassifyOp(c.Op), owner)
				charged = true
				break
			}
		}
	}
	if !charged {
		ref.ObserveFP(FPNoAttr, FPClassStale, self)
	}
	return nil
}

// TestCollectExactMatchesTwoPass is the seeded differential of the fused
// owner pass against collectExactTwoPass: over range∋eq and prefix⊃eq
// folds, candidate lists that mix the broker's own match with dead ids
// and other owners' keys, and records with and without hits, both find
// the same hits and charge the same multiset of triples.
func TestCollectExactMatchesTwoPass(t *testing.T) {
	s := testSchema(t)
	got, ref := NewFPAttributor(s, nil, nil, 3), NewFPAttributor(s, nil, nil, 3)
	b, err := New(Config{ID: 1, Schema: s, Mode: interval.Lossy, NumBrokers: 3, Attribution: got})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	symbols := []string{"OTE", "OTA", "OTX", "AAA", "AAB", "BBC"}
	prefixes := []string{"OT", "OTE", "AA", "B"} // OT covers OTE
	templates := []string{
		"symbol = %s && price > %d",  // a range row that covers eq points
		"symbol = %s && price = %d",  // an eq point a range may fold
		"symbol >* %s && price < %d", // a prefix row that covers eq strings
		"symbol = %s && price < %d",
		"price < %[2]d && symbol >* %[1]s", // the range is checked first
	}
	var dead []uint64
	for i := 0; i < 40; i++ {
		tmpl := templates[rng.Intn(len(templates))]
		sym := symbols[rng.Intn(len(symbols))]
		if strings.Contains(tmpl, ">* %") {
			sym = prefixes[rng.Intn(len(prefixes))]
		}
		sub, err := schema.ParseSubscription(s, fmt.Sprintf(tmpl, sym, rng.Intn(300)))
		if err != nil {
			t.Fatal(err)
		}
		id, err := b.Subscribe(sub, noDeliver)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(5) == 0 {
			if err := b.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
			dead = append(dead, id.Key())
		}
	}
	withHits, withoutHits := 0, 0
	var hits []*subEntry // one scratch for every record, as the event path reuses it
	for r := 0; r < 600; r++ {
		ev, err := schema.ParseEvent(s, fmt.Sprintf("symbol=%s price=%d", symbols[rng.Intn(len(symbols))], rng.Intn(400)))
		if err != nil {
			t.Fatal(err)
		}
		l := b.AcquireMatcher()
		var keys []uint64
		for _, k := range l.m.MatchKeys(ev) {
			if rng.Intn(4) != 0 { // a sender names a subset of the owner's rows
				keys = append(keys, k)
			}
		}
		l.Release()
		for n := rng.Intn(3); n > 0; n-- {
			keys = append(keys, dead[rng.Intn(len(dead))])
		}
		for n := rng.Intn(3); n > 0; n-- {
			owner := subid.BrokerID(2 * rng.Intn(2)) // 0 or 2: never this broker
			keys = append(keys, subid.ID{Broker: owner, Local: subid.LocalID(rng.Intn(40))}.Key())
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)

		want := collectExactTwoPass(b, ev, keys, ref)
		hits = b.collectExact(ev, keys, hits[:0])
		if !slices.Equal(hits, want) {
			t.Fatalf("record %d (%v): fused pass hits %d, two-pass %d", r, keys, len(hits), len(want))
		}
		if len(hits) > 0 {
			withHits++
		} else {
			withoutHits++
		}
		if g, w := got.Report(0), ref.Report(0); !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d: charges diverge\nfused:    %+v\ntwo-pass: %+v", r, g.TopK, w.TopK)
		}
	}
	if withHits < 50 || withoutHits < 50 {
		t.Fatalf("records with/without hits = %d/%d; the differential needs both", withHits, withoutHits)
	}
	// The range∋eq fold charges price/eq, the prefix⊃eq fold symbol/eq,
	// OT covering OTE symbol/prefix; dead ids and empty records charge stale.
	charged := map[string]bool{}
	for _, e := range got.Report(0).TopK {
		charged[e.Attr+"/"+e.Class] = true
	}
	for _, c := range []string{"price/eq", "symbol/eq", "symbol/prefix", "-/stale"} {
		if !charged[c] {
			t.Fatalf("no %s charge among %v: the differential missed a fold", c, got.Report(0).TopK)
		}
	}
}

// TestFPAttributorConcurrentExact charges from goroutines × owners at
// once (run it under -race): every count and the total must come out
// exact, and the report in its fixed order — count descending, then
// attribute id, class name and owner.
func TestFPAttributorConcurrentExact(t *testing.T) {
	s := testSchema(t)
	priceID, _ := s.ID("price")
	symbolID, _ := s.ID("symbol")
	const owners, goroutines, rounds = 6, 4, 500
	a := NewFPAttributor(s, nil, nil, owners)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for o := 0; o < owners; o++ {
					owner := subid.BrokerID(o)
					// Owner o takes o+2 price/range charges per round, so
					// those counts differ by owner and lead; symbol/eq and
					// stale tie.
					for k := 0; k < o+2; k++ {
						a.ObserveFP(priceID, FPClassRange, owner)
					}
					a.ObserveFP(symbolID, FPClassEq, owner)
					a.ObserveFP(FPNoAttr, FPClassStale, owner)
				}
			}
		}()
	}
	wg.Wait()
	rep := a.Report(0)
	var want []FPAttribution
	for o := owners - 1; o >= 0; o-- {
		want = append(want, FPAttribution{Attr: "price", AttrID: int(priceID), Class: "range", Owner: o,
			Count: int64(goroutines * rounds * (o + 2))})
	}
	// The ties: symbol (id 0) before the sentinel, then by owner.
	for o := 0; o < owners; o++ {
		want = append(want, FPAttribution{Attr: "symbol", AttrID: int(symbolID), Class: "eq", Owner: o,
			Count: goroutines * rounds})
	}
	for o := 0; o < owners; o++ {
		want = append(want, FPAttribution{Attr: "-", AttrID: int(FPNoAttr), Class: "stale", Owner: o,
			Count: goroutines * rounds})
	}
	if !reflect.DeepEqual(rep.TopK, want) {
		t.Fatalf("report:\n got %+v\nwant %+v", rep.TopK, want)
	}
	var total int64
	for _, e := range want {
		total += e.Count
	}
	if rep.Total != total {
		t.Fatalf("total = %d, want %d", rep.Total, total)
	}
	if top := a.Report(2).TopK; len(top) != 2 || top[0] != want[0] || top[1] != want[1] {
		t.Fatalf("Report(2) = %+v, want the first two of the full report", top)
	}
	// Nil attributor is valid everywhere.
	var nilA *FPAttributor
	nilA.ObserveFP(priceID, FPClassRange, 0)
	nilA.CreditDelivery(subid.Mask{})
	if r := nilA.Report(3); r.Total != 0 || len(r.TopK) != 0 {
		t.Fatalf("nil attributor reported %+v", r)
	}
}

// TestFPAttributorUnknownAndExtendedAttrs pins the names and counts of
// attributes the construction-time schema did not hold: one the schema
// gains later (Schema.Add, as Network.ExtendSchema does) is named and
// counted exactly, past the delivery tallies' headroom too, and an id the
// schema does not know reports as attr(N).
func TestFPAttributorUnknownAndExtendedAttrs(t *testing.T) {
	s := testSchema(t)
	a := NewFPAttributor(s, nil, nil, 2)
	for i := 0; i < attrHeadroom+3; i++ {
		if _, err := s.Add(fmt.Sprintf("x%d", i), schema.TypeInt); err != nil {
			t.Fatal(err)
		}
	}
	last := schema.AttrID(s.Len() - 1)
	unknown := schema.AttrID(s.Len() + 70) // in a chunk no charge touched yet
	for i := 0; i < 3; i++ {
		a.ObserveFP(last, FPClassRange, 1)
	}
	a.ObserveFP(unknown, FPClassEq, 0)
	rep := a.Report(0)
	want := []FPAttribution{
		{Attr: fmt.Sprintf("x%d", attrHeadroom+2), AttrID: int(last), Class: "range", Owner: 1, Count: 3},
		{Attr: fmt.Sprintf("attr(%d)", unknown), AttrID: int(unknown), Class: "eq", Owner: 0, Count: 1},
	}
	if !reflect.DeepEqual(rep.TopK, want) || rep.Total != 4 {
		t.Fatalf("report: total %d, %+v; want 4, %+v", rep.Total, rep.TopK, want)
	}
	found := false
	for _, p := range rep.Attrs {
		if p.AttrID == int(last) {
			found = p.FalsePos == 3
		}
	}
	if !found {
		t.Fatalf("precision rows %+v lack the extended attribute's 3 false positives", rep.Attrs)
	}
	// Owners outside the construction-time broker count are dropped.
	a.ObserveFP(last, FPClassRange, 2)
	if got := a.Report(0).Total; got != 4 {
		t.Fatalf("charge to owner 2 of 2 counted: total %d", got)
	}
}

// TestFPAttributorJournalsAdmissionsOnly pins the journal cap: the first
// sighting of a triple is journaled, repeat charges are not, and at most
// fpJournalCap first sightings per attributor reach the flight ring, so a
// wide triple mix cannot flush it (the bounded ring once lost the first
// phase-start record of the smoke scenario that way).
func TestFPAttributorJournalsAdmissionsOnly(t *testing.T) {
	s := testSchema(t)
	rec := flight.NewRecorder(1 << 16)
	const owners = 3 * fpJournalCap
	a := NewFPAttributor(s, nil, rec, owners)
	priceID, _ := s.ID("price")
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for o := 0; o < owners; o++ {
			a.ObserveFP(priceID, FPClassRange, subid.BrokerID(o))
		}
	}
	journaled := 0
	for _, r := range rec.Records() {
		if r.Type == flight.EvFPAttribution {
			if r.Broker != journaled {
				t.Fatalf("journal record %d names owner %d, want the first sightings in order", journaled, r.Broker)
			}
			journaled++
		}
	}
	if journaled != fpJournalCap {
		t.Fatalf("journaled %d attribution records, want the cap %d", journaled, fpJournalCap)
	}
	if rep := a.Report(0); rep.Total != rounds*owners || len(rep.TopK) != owners {
		t.Fatalf("report total %d / %d entries, want %d / %d", rep.Total, len(rep.TopK), rounds*owners, owners)
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
// plus atomic adds) and charging a false positive once the owner's row
// holds its triple's chunk (the common case under a sustained
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

// BenchmarkObserveFPSteadyState is the established-row false-positive
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

// BenchmarkObserveFPParallel charges from every processor at once, each
// goroutine to its own owner's row — the bus workers running different
// brokers' false positives.
func BenchmarkObserveFPParallel(b *testing.B) {
	s := testSchema(b)
	const owners = 64
	a := NewFPAttributor(s, metrics.NewRegistry(), nil, owners)
	priceID, _ := s.ID("price")
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		owner := subid.BrokerID(next.Add(1) % owners)
		for pb.Next() {
			a.ObserveFP(priceID, FPClassRange, owner)
		}
	})
}

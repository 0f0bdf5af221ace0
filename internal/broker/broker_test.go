package broker

import (
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
}

func newBroker(t testing.TB, id topology.NodeID, n int) *Broker {
	t.Helper()
	b, err := New(Config{ID: id, Schema: testSchema(t), Mode: interval.Lossy, NumBrokers: n})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func noDeliver(subid.ID, *schema.Event) {}

// TakeDelta returns the summary of subscriptions accumulated since the
// previous call and resets the delta (the per-period batch of σ
// subscriptions that Algorithm 2 propagates).
func (b *Broker) TakeDelta() *summary.Summary { return b.TakePeriodSummary(false) }

func TestNewValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := New(Config{Schema: nil, NumBrokers: 1}); err == nil {
		t.Fatal("nil schema accepted")
	}
	if _, err := New(Config{Schema: s, ID: 5, NumBrokers: 3}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := New(Config{Schema: s, NumBrokers: 0}); err == nil {
		t.Fatal("zero brokers accepted")
	}
}

func TestSubscribeAssignsSequentialLocalIDs(t *testing.T) {
	b := newBroker(t, 2, 4)
	sub, _ := schema.ParseSubscription(testSchema(t), `price > 1`)
	for want := 0; want < 3; want++ {
		id, err := b.Subscribe(sub, noDeliver)
		if err != nil {
			t.Fatal(err)
		}
		if id.Broker != 2 || id.Local != subid.LocalID(want) {
			t.Fatalf("id = %v, want B2/S%d", id, want)
		}
		if id.NumAttrs() != 1 {
			t.Fatalf("c3 count = %d", id.NumAttrs())
		}
	}
	if b.NumSubscriptions() != 3 {
		t.Fatalf("NumSubscriptions = %d", b.NumSubscriptions())
	}
}

func TestSubscribeLimitAndValidation(t *testing.T) {
	s := testSchema(t)
	b, err := New(Config{ID: 0, Schema: s, NumBrokers: 1, MaxSubscriptions: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	if _, err := b.Subscribe(nil, noDeliver); err == nil {
		t.Fatal("nil subscription accepted")
	}
	if _, err := b.Subscribe(sub, nil); err == nil {
		t.Fatal("nil delivery accepted")
	}
	if _, err := b.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(sub, noDeliver); err == nil {
		t.Fatal("limit not enforced")
	}
}

func TestTakeDeltaResets(t *testing.T) {
	b := newBroker(t, 0, 2)
	sub, _ := schema.ParseSubscription(testSchema(t), `price > 1`)
	if _, err := b.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	d1 := b.TakeDelta()
	if d1.NumSubscriptions() != 1 {
		t.Fatalf("delta subs = %d", d1.NumSubscriptions())
	}
	d2 := b.TakeDelta()
	if d2.NumSubscriptions() != 0 {
		t.Fatalf("second delta subs = %d", d2.NumSubscriptions())
	}
	// Merged state still knows the subscription.
	if st := b.Stats(); st.MergedSummarySubs != 1 || st.OwnSubscriptions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnsubscribe(t *testing.T) {
	b := newBroker(t, 0, 2)
	s := testSchema(t)
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	id, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if b.NumSubscriptions() != 0 {
		t.Fatal("subscription not removed")
	}
	if err := b.Unsubscribe(id); err == nil {
		t.Fatal("double unsubscribe accepted")
	}
	ev, _ := schema.ParseEvent(s, `price=5`)
	if got := b.DeliverExact(ev); got != 0 {
		t.Fatalf("deliveries after unsubscribe = %d", got)
	}
}

func TestDeliverExactFiltersFalsePositives(t *testing.T) {
	b := newBroker(t, 0, 2)
	s := testSchema(t)
	subA, _ := schema.ParseSubscription(s, `symbol >* OT`)
	subB, _ := schema.ParseSubscription(s, `symbol = OTE`)
	var mu sync.Mutex
	counts := map[string]int{}
	deliver := func(name string) DeliveryFunc {
		return func(subid.ID, *schema.Event) {
			mu.Lock()
			counts[name]++
			mu.Unlock()
		}
	}
	if _, err := b.Subscribe(subA, deliver("A")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(subB, deliver("B")); err != nil {
		t.Fatal(err)
	}
	// The merged summary generalizes symbol to prefix OT: MatchMerged
	// reports both for OTX, but DeliverExact must deliver only A.
	ev, _ := schema.ParseEvent(s, `symbol=OTX`)
	if got := len(b.MatchMerged(ev)); got != 2 {
		t.Fatalf("MatchMerged = %d ids, want 2 (lossy pre-filter)", got)
	}
	if got := b.DeliverExact(ev); got != 1 {
		t.Fatalf("DeliverExact = %d, want 1", got)
	}
	if counts["A"] != 1 || counts["B"] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestMergeSummaryAndSnapshot(t *testing.T) {
	s := testSchema(t)
	a := newBroker(t, 0, 3)
	b := newBroker(t, 1, 3)
	sub, _ := schema.ParseSubscription(s, `price > 10`)
	if _, err := b.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	sum, set := b.SnapshotMerged()
	if err := a.MergeEncodedSummary(sum.Encode(nil), set); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `price=20`)
	matched := a.MatchMerged(ev)
	if len(matched) != 1 || matched[0].Broker != 1 {
		t.Fatalf("matched = %v", matched)
	}
	got := a.MergedBrokers()
	if !got.Has(0) || !got.Has(1) || got.Has(2) {
		t.Fatalf("MergedBrokers = %v", got)
	}
	// Snapshot is a deep copy: mutating it doesn't affect the broker.
	set.Set(2)
	if a.MergedBrokers().Has(2) {
		t.Fatal("snapshot shares state")
	}
}

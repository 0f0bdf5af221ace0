package core

import (
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

func stockSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew(
		schema.Attribute{Name: "exchange", Type: schema.TypeString},
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
		schema.Attribute{Name: "volume", Type: schema.TypeInt},
	)
}

// collector gathers deliveries thread-safely.
type collector struct {
	mu     sync.Mutex
	events []string
}

func (c *collector) deliver(s *schema.Schema) func(subid.ID, *schema.Event) {
	return func(id subid.ID, ev *schema.Event) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.events = append(c.events, ev.Format(s))
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func newNetwork(t testing.TB, g *topology.Graph, s *schema.Schema) *Network {
	t.Helper()
	net, err := New(Config{Topology: g, Schema: s, Mode: interval.Lossy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net
}

// TestEndToEndDelivery is the core engine invariant: after propagation,
// an event published anywhere is delivered to exactly the consumers whose
// subscriptions match, wherever they are attached.
func TestEndToEndDelivery(t *testing.T) {
	s := stockSchema(t)
	g := topology.Figure7Tree()
	net := newNetwork(t, g, s)

	sub1, err := schema.ParseSubscription(s, `symbol = OTE && price > 8.30 && price < 8.70`)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := schema.ParseSubscription(s, `symbol >* OT && volume > 130000`)
	if err != nil {
		t.Fatal(err)
	}
	sub3, err := schema.ParseSubscription(s, `price > 100`)
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2, c3 collector
	if _, err := net.Subscribe(3, sub1, c1.deliver(s)); err != nil { // paper broker 4
		t.Fatal(err)
	}
	if _, err := net.Subscribe(7, sub2, c2.deliver(s)); err != nil { // paper broker 8
		t.Fatal(err)
	}
	if _, err := net.Subscribe(12, sub3, c3.deliver(s)); err != nil { // paper broker 13
		t.Fatal(err)
	}
	if hops, err := net.Propagate(); err != nil || hops <= 0 {
		t.Fatalf("Propagate: hops=%d err=%v", hops, err)
	}
	ev, err := schema.ParseEvent(s, `exchange=NYSE symbol=OTE price=8.40 volume=132700`)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Publish(0, ev); err != nil { // paper broker 1
		t.Fatal(err)
	}
	net.Flush()
	if c1.count() != 1 {
		t.Errorf("sub1 deliveries = %d, want 1", c1.count())
	}
	if c2.count() != 1 {
		t.Errorf("sub2 deliveries = %d, want 1", c2.count())
	}
	if c3.count() != 0 {
		t.Errorf("sub3 deliveries = %d, want 0", c3.count())
	}
}

func TestEventBeforePropagationReachesLocalOnly(t *testing.T) {
	s := stockSchema(t)
	g := topology.Ring(4)
	net := newNetwork(t, g, s)
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	var local, remote collector
	if _, err := net.Subscribe(0, sub, local.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Subscribe(2, sub, remote.deliver(s)); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `price=5`)
	// No propagation yet: only broker 0 knows its own subscription — but
	// Algorithm 3 still walks all brokers (BROCLI), finding broker 2's
	// subscription in broker 2's own merged summary.
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if local.count() != 1 {
		t.Errorf("local deliveries = %d, want 1", local.count())
	}
	if remote.count() != 1 {
		t.Errorf("remote deliveries = %d, want 1 (found via BROCLI walk)", remote.count())
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Ring(3), s)
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	var c collector
	id, err := net.Subscribe(1, sub, c.deliver(s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `price=5`)
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 1 {
		t.Fatalf("deliveries = %d, want 1", c.count())
	}
	if err := net.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	// Remote merged summaries may still advertise the subscription, but
	// the owner's exact re-match drops it: no new delivery.
	if c.count() != 1 {
		t.Fatalf("deliveries after unsubscribe = %d, want 1", c.count())
	}
}

func TestNoFalseDeliveries(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.CW24(), s)
	// A summary false positive source: prefix generalization. Two subs
	// whose SACS rows generalize; events matching the generalization but
	// not the subscription must not be delivered.
	subA, _ := schema.ParseSubscription(s, `symbol >* OT`)
	subB, _ := schema.ParseSubscription(s, `symbol = OTE`)
	var cA, cB collector
	if _, err := net.Subscribe(3, subA, cA.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Subscribe(3, subB, cB.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `symbol=OTX`) // matches subA, not subB
	if err := net.Publish(9, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if cA.count() != 1 {
		t.Errorf("subA deliveries = %d, want 1", cA.count())
	}
	if cB.count() != 0 {
		t.Errorf("subB deliveries = %d, want 0 (exact re-match must drop)", cB.count())
	}
}

// TestRandomizedEndToEnd cross-checks the live engine against exact
// matching for a random workload on the CW24 backbone.
func TestRandomizedEndToEnd(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	g := topology.CW24()
	net := newNetwork(t, g, s)

	type entry struct {
		sub *schema.Subscription
		c   *collector
	}
	var entries []entry
	for i := 0; i < 150; i++ {
		sub := gen.Subscription()
		c := &collector{}
		if _, err := net.Subscribe(topology.NodeID(i%g.Len()), sub, c.deliver(s)); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{sub: sub, c: c})
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	events := make([]*schema.Event, 200)
	for i := range events {
		events[i] = gen.Event(0.9)
		if err := net.Publish(topology.NodeID(i%g.Len()), events[i]); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	for i, e := range entries {
		want := 0
		for _, ev := range events {
			if e.sub.Matches(ev) {
				want++
			}
		}
		if got := e.c.count(); got != want {
			t.Fatalf("subscription %d (%s): %d deliveries, want %d",
				i, e.sub.Format(s), got, want)
		}
	}
	// Real bytes moved on the bus, and a clean run has every loss counter
	// at exactly zero.
	st := net.Stats()
	if st.Messages[netsim.KindSummary] == 0 || st.TotalBytes() == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalDropped() != 0 || st.TotalErrors() != 0 {
		t.Fatalf("loss counters non-zero on clean run: %+v", st)
	}
}

// TestIncrementalPropagationPeriods: subscriptions added after a period
// are propagated by the next period's delta.
func TestIncrementalPropagationPeriods(t *testing.T) {
	s := stockSchema(t)
	g := topology.Figure7Tree()
	net := newNetwork(t, g, s)
	sub1, _ := schema.ParseSubscription(s, `price > 1 && price < 2`)
	var c1, c2 collector
	if _, err := net.Subscribe(3, sub1, c1.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	// Second period: a new subscription arrives.
	sub2, _ := schema.ParseSubscription(s, `price > 10 && price < 20`)
	if _, err := net.Subscribe(8, sub2, c2.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev1, _ := schema.ParseEvent(s, `price=1.5`)
	ev2, _ := schema.ParseEvent(s, `price=15`)
	if err := net.Publish(0, ev1); err != nil {
		t.Fatal(err)
	}
	if err := net.Publish(5, ev2); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c1.count() != 1 || c2.count() != 1 {
		t.Fatalf("deliveries = %d/%d, want 1/1", c1.count(), c2.count())
	}
	// Broker 5 (node 4) should have merged knowledge from both periods.
	st := net.Broker(4).Stats()
	if st.MergedBrokerCount < 6 {
		t.Fatalf("broker 5 merged coverage = %d, want ≥ 6", st.MergedBrokerCount)
	}
}

func TestConfigValidation(t *testing.T) {
	s := stockSchema(t)
	if _, err := New(Config{Schema: s}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := New(Config{Topology: topology.Ring(3)}); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestSubscribeValidation(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Ring(3), s)
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	if _, err := net.Subscribe(9, sub, func(subid.ID, *schema.Event) {}); err == nil {
		t.Fatal("out-of-range broker accepted")
	}
	if _, err := net.Subscribe(0, nil, func(subid.ID, *schema.Event) {}); err == nil {
		t.Fatal("nil subscription accepted")
	}
	if _, err := net.Subscribe(0, sub, nil); err == nil {
		t.Fatal("nil delivery func accepted")
	}
	if err := net.Unsubscribe(subid.ID{Broker: 9}); err == nil {
		t.Fatal("out-of-range unsubscribe accepted")
	}
	if err := net.Publish(7, nil); err == nil {
		t.Fatal("out-of-range publish accepted")
	}
}

func TestSubscriptionLimit(t *testing.T) {
	s := stockSchema(t)
	net, err := New(Config{
		Topology: topology.Ring(3), Schema: s,
		MaxSubscriptionsPerBroker: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	fn := func(subid.ID, *schema.Event) {}
	for i := 0; i < 2; i++ {
		if _, err := net.Subscribe(0, sub, fn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Subscribe(0, sub, fn); err == nil {
		t.Fatal("c2 exhaustion not enforced")
	}
}

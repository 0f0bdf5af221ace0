package core

import (
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// TestLiveEngineHopsMatchDeterministicRouter is the strongest
// cross-validation between the two execution paths: identical
// subscriptions go through (a) the deterministic propagation+router
// pipeline and (b) the live engine, and the total event-processing hop
// counts must agree exactly — forwards are KindEvent messages beyond the
// initial publishes, deliveries are the deliver records the KindDeliver
// messages carry (one message holds an owner's records for a run of
// events, so the records are what counts). On CW24 walks
// are one or two hops; on the 256-broker transit-stub overlay they are
// long enough that most hops resume the forwarding scan at their own rank
// (routing.Order.NextHop). Subscriptions of three constraints and events
// of ten attributes (the fanout shape) make each event reach several
// remote owners, and a floor on the deliveries keeps the delivery half of
// the comparison from passing vacuously.
func TestLiveEngineHopsMatchDeterministicRouter(t *testing.T) {
	for _, tc := range []struct {
		name          string
		g             *topology.Graph
		subsPerBroker int
		minDeliver    int // remote deliveries the 120 events must make at least
	}{
		{"CW24", topology.CW24(), 40, 300},
		{"TransitStub256", topology.TransitStub(256, 256), 4, 300},
	} {
		t.Run(tc.name, func(t *testing.T) { liveHopsMatchRouter(t, tc.g, tc.subsPerBroker, tc.minDeliver) })
	}
}

func liveHopsMatchRouter(t *testing.T, g *topology.Graph, subsPerBroker, minDeliver int) {
	cfg := workload.DefaultConfig()
	cfg.AttrsPerEvent, cfg.AttrsPerSub = 10, 3
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	n := g.Len()

	subs := make([][]*schema.Subscription, n)
	for i := range subs {
		subs[i] = gen.Subscriptions(subsPerBroker)
	}
	events := make([]*schema.Event, 120)
	for i := range events {
		events[i] = gen.Event(0.9)
	}

	// Path (a): deterministic.
	own := make([]*summary.Summary, n)
	for i, list := range subs {
		own[i] = summary.New(s, interval.Lossy)
		for j, sub := range list {
			id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(j)}
			if err := own[i].Insert(id, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	prop, err := propagation.Run(g, own, propagation.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	router, err := routing.NewRouter(g, prop)
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]*summary.Matcher, n)
	for i, sm := range prop.Merged {
		merged[i] = sm.NewMatcher()
	}
	var wantForward, wantDeliver int
	for i, ev := range events {
		ev := ev
		match := func(at topology.NodeID) []topology.NodeID {
			var out []topology.NodeID
			seen := map[topology.NodeID]bool{}
			for _, id := range merged[at].Match(ev) {
				owner := topology.NodeID(id.Broker)
				if !seen[owner] {
					seen[owner] = true
					out = append(out, owner)
				}
			}
			return out
		}
		trace := router.Route(topology.NodeID(i%n), match)
		wantForward += trace.ForwardHops
		// The live engine sends one deliver record per remote owner; local
		// owners deliver in place. Trace.DeliveryHops counts exactly the
		// remote ones.
		wantDeliver += trace.DeliveryHops
	}

	// Path (b): the live engine with the same inputs.
	net, err := New(Config{Topology: g, Schema: s, Mode: interval.Lossy})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for i, list := range subs {
		for _, sub := range list {
			if _, err := net.Subscribe(topology.NodeID(i), sub, func(subid.ID, *schema.Event) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if err := net.Publish(topology.NodeID(i%n), ev); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	st := net.Stats()
	gotForward := int(st.Messages[netsim.KindEvent]) - len(events) // minus publish injections
	gotDeliver := int(net.Metrics().Counter("deliver_sends").Value())
	t.Logf("%d events: %d forward hops, %d delivery hops", len(events), wantForward, wantDeliver)
	if wantDeliver < minDeliver {
		t.Fatalf("fixture is vacuous: %d remote deliveries, want at least %d", wantDeliver, minDeliver)
	}
	if gotForward != wantForward {
		t.Errorf("forward hops: live %d, deterministic %d", gotForward, wantForward)
	}
	if gotDeliver != wantDeliver {
		t.Errorf("delivery hops: live %d, deterministic %d", gotDeliver, wantDeliver)
	}
}

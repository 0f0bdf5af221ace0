package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// busOutcome is what a schedule must not change: every subscription's
// delivered events, the routing counters and the bus bytes per kind.
type busOutcome struct {
	delivered    [][]string // per subscription, sorted
	routed       int64
	deliverSends int64
	bytes        map[netsim.Kind]int64
}

// runOnBus builds a network on the bus newBus makes, loads 3 dense
// subscriptions per broker, propagates once, publishes every event
// without waiting between them and flushes. The subscriptions and events
// derive from seed. It checks the delivered sets against the brute-force
// oracle before returning them.
func runOnBus(t *testing.T, g *topology.Graph, seed int64, events int, newBus func(n int) *netsim.Bus) busOutcome {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.AttrsPerSub, cfg.AttrsPerEvent, cfg.Subsumption, cfg.Seed = 2, 8, 1.0, seed
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &stressFixture{schema: gen.Schema()}
	f.net, err = newOnBus(Config{Topology: g, Schema: f.schema, Mode: interval.Lossy}, newBus)
	if err != nil {
		t.Fatal(err)
	}
	defer f.net.Close()
	for i := 0; i < 3*g.Len(); i++ {
		sub := gen.Subscription()
		c := &collector{}
		if _, err := f.net.Subscribe(topology.NodeID(i%g.Len()), sub, c.deliver(f.schema)); err != nil {
			t.Fatal(err)
		}
		f.rawSubs = append(f.rawSubs, sub)
		f.collectors = append(f.collectors, c)
	}
	f.events = make([]*schema.Event, events)
	for i := range f.events {
		f.events[i] = gen.Event(0.9)
	}
	if _, err := f.net.Propagate(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range f.events {
		if err := f.net.Publish(topology.NodeID(i%g.Len()), ev); err != nil {
			t.Fatal(err)
		}
	}
	f.net.Flush()
	if f.assertOracleDeliveredSets(t) == 0 {
		t.Fatal("oracle expects no deliveries; the differential is vacuous")
	}
	f.assertCleanRun(t)
	out := busOutcome{
		routed:       f.net.Metrics().Counter("events_routed").Value(),
		deliverSends: f.net.Metrics().Counter("deliver_sends").Value(),
		bytes:        f.net.Stats().Bytes,
	}
	for _, c := range f.collectors {
		got := slices.Clone(c.events)
		slices.Sort(got)
		out.delivered = append(out.delivered, got)
	}
	return out
}

// TestPooledAndSteppedDeliverTheSameSet is the scheduler's differential:
// the pooled bus and a stepped bus — one caller-driven worker choosing
// (broker, run length) from a seed — must deliver the same (event,
// subscription) set, equal to Subscription.Matches over the raw
// subscriptions, with 256 events in flight at once, and agree on the
// routed and deliver-send counts and on the bus bytes of every kind.
func TestPooledAndSteppedDeliverTheSameSet(t *testing.T) {
	const events = 256
	for _, tp := range []struct {
		name string
		g    func() *topology.Graph
	}{
		{"CW24", topology.CW24},
		{"TransitStub64", func() *topology.Graph { return topology.TransitStub(64, 64) }},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				pooled := runOnBus(t, tp.g(), seed, events, netsim.NewBus)
				stepped := runOnBus(t, tp.g(), seed, events, func(n int) *netsim.Bus { return netsim.NewSteppedBus(n, seed) })
				for i := range pooled.delivered {
					if !slices.Equal(pooled.delivered[i], stepped.delivered[i]) {
						t.Fatalf("subscription %d: pooled delivered %v, stepped %v", i, pooled.delivered[i], stepped.delivered[i])
					}
				}
				if pooled.routed != stepped.routed || pooled.deliverSends != stepped.deliverSends {
					t.Fatalf("events_routed %d vs %d, deliver_sends %d vs %d (pooled vs stepped)",
						pooled.routed, stepped.routed, pooled.deliverSends, stepped.deliverSends)
				}
				for _, k := range []netsim.Kind{netsim.KindSummary, netsim.KindEvent, netsim.KindDeliver} {
					if pooled.bytes[k] != stepped.bytes[k] {
						t.Fatalf("%v bytes: pooled %d, stepped %d", k, pooled.bytes[k], stepped.bytes[k])
					}
				}
			})
		}
	}
}

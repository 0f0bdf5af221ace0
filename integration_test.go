package subsum_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	subsum "github.com/subsum/subsum"
)

// refSub is the reference model's view of one live subscription.
type refSub struct {
	id    subsum.SubscriptionID
	sub   *subsum.Subscription
	alive bool
}

// deliveryLog collects deliveries keyed by subscription id.
type deliveryLog struct {
	mu     sync.Mutex
	counts map[uint64]int
}

func (l *deliveryLog) deliver(id subsum.SubscriptionID, _ *subsum.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[id.Key()]++
}

func (l *deliveryLog) get(id subsum.SubscriptionID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[id.Key()]
}

// TestChurnIntegration drives the whole system through several periods of
// subscription churn (subscribe/unsubscribe), schema evolution, and event
// bursts on a random overlay, checking every delivery count against a
// brute-force reference model. This is the repository's end-to-end
// correctness gate.
func TestChurnIntegration(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo *subsum.Graph
	}{
		{name: "backbone-lossy", topo: subsum.Backbone24()},
		{name: "random", topo: subsum.RandomOverlay(16, 6, 3)},
		{name: "tree", topo: subsum.ExampleTree13()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			gen, err := subsum.NewWorkload(subsum.DefaultWorkload())
			if err != nil {
				t.Fatal(err)
			}
			s := gen.Schema()
			net, err := subsum.NewNetwork(subsum.NetworkConfig{
				Topology: tc.topo,
				Schema:   s,
				Mode:     subsum.Lossy,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()

			rng := rand.New(rand.NewSource(99))
			log := &deliveryLog{counts: make(map[uint64]int)}
			var refs []*refSub
			expected := make(map[uint64]int)

			n := tc.topo.Len()
			for period := 0; period < 4; period++ {
				// Churn: add new subscriptions...
				for i := 0; i < 30; i++ {
					sub := gen.AnchoredSubscription(0.5)
					id, err := net.Subscribe(subsum.NodeID(rng.Intn(n)), sub, log.deliver)
					if err != nil {
						t.Fatal(err)
					}
					refs = append(refs, &refSub{id: id, sub: sub, alive: true})
				}
				// ...drop a few old ones.
				for i := 0; i < 5 && len(refs) > 10; i++ {
					victim := refs[rng.Intn(len(refs))]
					if !victim.alive {
						continue
					}
					if err := net.Unsubscribe(victim.id); err != nil {
						t.Fatal(err)
					}
					victim.alive = false
				}
				// Evolve the schema occasionally.
				if period == 2 {
					if _, err := net.ExtendSchema(fmt.Sprintf("evolved%d", period), subsum.TypeFloat); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := net.Propagate(); err != nil {
					t.Fatal(err)
				}
				// An event burst; update the reference expectations.
				for e := 0; e < 60; e++ {
					ev := gen.Event(0.8)
					if err := net.Publish(subsum.NodeID(rng.Intn(n)), ev); err != nil {
						t.Fatal(err)
					}
					for _, r := range refs {
						if r.alive && r.sub.Matches(ev) {
							expected[r.id.Key()]++
						}
					}
				}
				net.Flush()
			}

			for _, r := range refs {
				want := expected[r.id.Key()]
				if got := log.get(r.id); got != want {
					t.Fatalf("%s: subscription %v: %d deliveries, want %d",
						tc.name, r.id, got, want)
				}
			}
			// Sanity: the run exercised real traffic.
			if st := net.Stats(); st.TotalMessages() == 0 {
				t.Fatal("no messages moved")
			}
		})
	}
}

// TestDeterministicPipelineAgainstLiveEngine cross-validates the two
// execution paths: for identical subscriptions, the deterministic
// propagation result reports the same per-broker coverage counts as the
// live engine's merged summaries.
func TestDeterministicPipelineAgainstLiveEngine(t *testing.T) {
	gen, err := subsum.NewWorkload(subsum.DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	topo := subsum.Backbone24()
	n := topo.Len()

	// Same subscriptions on both paths.
	subsPerBroker := make([][]*subsum.Subscription, n)
	for i := range subsPerBroker {
		for j := 0; j < 5; j++ {
			subsPerBroker[i] = append(subsPerBroker[i], gen.Subscription())
		}
	}

	// Live engine.
	net, err := subsum.NewNetwork(subsum.NetworkConfig{Topology: topo, Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for i, list := range subsPerBroker {
		for _, sub := range list {
			if _, err := net.Subscribe(subsum.NodeID(i), sub, func(subsum.SubscriptionID, *subsum.Event) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}

	// Deterministic path.
	own := make([]*subsum.Summary, n)
	for i, list := range subsPerBroker {
		own[i] = subsum.NewSummary(s, subsum.Lossy)
		for j, sub := range list {
			id := subsum.SubscriptionID{Broker: subsum.BrokerID(i), Local: subsum.LocalID(j)}
			if err := own[i].Insert(id, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := subsum.RunPropagation(topo, own)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		liveStats := net.Broker(subsum.NodeID(i)).Stats()
		detCount := res.Merged[i].NumSubscriptions()
		if liveStats.MergedSummarySubs != detCount {
			t.Fatalf("broker %d: live merged %d subs, deterministic %d",
				i, liveStats.MergedSummarySubs, detCount)
		}
		if liveStats.MergedBrokerCount != res.MergedBrokers[i].Count() {
			t.Fatalf("broker %d: live coverage %d, deterministic %d",
				i, liveStats.MergedBrokerCount, res.MergedBrokers[i].Count())
		}
	}
}

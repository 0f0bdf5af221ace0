package routing

import (
	"reflect"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/topology"
)

// TestStrategyDeliveryInvariance: the forwarding order decides which broker
// is examined next and so the hop count, never the delivered set — the walk
// delivers to exactly the matched brokers, each once, from every origin.
// TestAllMatchedAlwaysDelivered holds one half (no matched broker missed);
// this holds the other (no unmatched broker reached, no broker twice).
func TestStrategyDeliveryInvariance(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.CW24(),
		topology.ATT33(),
		topology.Figure7Tree(),
		topology.Waxman(20, 0.4, 0.15, 5),
	} {
		prop, _ := propagate(t, g)
		r, err := NewRouter(g, prop)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Len()
		for origin := 0; origin < n; origin += 3 {
			for trial := 0; trial < 4; trial++ {
				matched := []topology.NodeID{
					topology.NodeID((origin + trial*5) % n),
					topology.NodeID((origin*3 + trial + 1) % n),
					topology.NodeID((origin*7 + trial*11 + 2) % n),
				}
				trace := r.Route(topology.NodeID(origin), r.PopularityMatch(matched))
				delivered := slices.Clone(trace.Delivered)
				slices.Sort(delivered)
				slices.Sort(matched)
				want := slices.Compact(matched)
				if !reflect.DeepEqual(delivered, want) {
					t.Fatalf("%s origin %d: delivered %v, want exactly the matched %v",
						g.Name(), origin, trace.Delivered, want)
				}
			}
		}
	}
}

// TestPropagationDeterminism: Algorithm 2 produces identical results on
// repeated runs over the same inputs (the figures must be reproducible).
func TestPropagationDeterminism(t *testing.T) {
	g := topology.CW24()
	prop1, _ := propagate(t, g)
	prop2, _ := propagate(t, g)
	if prop1.Hops != prop2.Hops || prop1.ModelBytes != prop2.ModelBytes {
		t.Fatalf("propagation not deterministic: %d/%d vs %d/%d",
			prop1.Hops, prop1.ModelBytes, prop2.Hops, prop2.ModelBytes)
	}
	if len(prop1.Sends) != len(prop2.Sends) {
		t.Fatal("send logs differ")
	}
	for i := range prop1.Sends {
		a, b := prop1.Sends[i], prop2.Sends[i]
		if a.From != b.From || a.To != b.To || a.Iteration != b.Iteration {
			t.Fatalf("send %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := range prop1.MergedBrokers {
		if !prop1.MergedBrokers[i].Equal(prop2.MergedBrokers[i]) {
			t.Fatalf("broker %d coverage differs", i)
		}
	}
}

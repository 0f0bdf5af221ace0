package routing

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// propagate builds one distinctive subscription per broker and runs
// Algorithm 2, returning everything routing needs.
func propagate(t testing.TB, g *topology.Graph) (*propagation.Result, *schema.Schema) {
	t.Helper()
	s := schema.MustNew(schema.Attribute{Name: "num00", Type: schema.TypeFloat})
	own := make([]*summary.Summary, g.Len())
	for i := range own {
		own[i] = summary.New(s, interval.Lossy)
		sub, err := schema.NewSubscription(s, schema.Constraint{
			Attr: 0, Op: schema.OpEQ, Value: schema.FloatValue(float64(1000000 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := own[i].Insert(subid.ID{Broker: subid.BrokerID(i)}, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := propagation.Run(g, own, propagation.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

// TestFigure7RoutingExample replays the paper's Example 3: an event
// matching brokers 4, 8, and 13 arrives at broker 1. The expected path is
// 1 → 5 (delivers to 4) → 8 (local match) → 11 (delivers to 13).
func TestFigure7RoutingExample(t *testing.T) {
	g := topology.Figure7Tree()
	prop, _ := propagate(t, g)
	r, err := NewRouter(g, prop)
	if err != nil {
		t.Fatal(err)
	}
	matched := []topology.NodeID{3, 7, 12} // paper brokers 4, 8, 13
	trace := r.Route(0, r.PopularityMatch(matched))

	wantVisited := []topology.NodeID{0, 4, 7, 10} // brokers 1, 5, 8, 11
	if len(trace.Visited) != len(wantVisited) {
		t.Fatalf("visited = %v, want %v", trace.Visited, wantVisited)
	}
	for i := range wantVisited {
		if trace.Visited[i] != wantVisited[i] {
			t.Fatalf("visited = %v, want %v", trace.Visited, wantVisited)
		}
	}
	// All three matched brokers delivered.
	deliveredSet := make(map[topology.NodeID]bool)
	for _, d := range trace.Delivered {
		deliveredSet[d] = true
	}
	for _, m := range matched {
		if !deliveredSet[m] {
			t.Fatalf("matched broker %d not delivered (delivered %v)", m, trace.Delivered)
		}
	}
	// Forward hops: 1→5, 5→8, 8→11. Delivery hops: 5→4 and 11→13
	// (broker 8 matches locally at zero cost).
	if trace.ForwardHops != 3 {
		t.Fatalf("forward hops = %d, want 3", trace.ForwardHops)
	}
	if trace.DeliveryHops != 2 {
		t.Fatalf("delivery hops = %d, want 2", trace.DeliveryHops)
	}
	if trace.Hops() != 5 {
		t.Fatalf("total hops = %d, want 5", trace.Hops())
	}
}

// TestAllMatchedAlwaysDelivered: for every origin and every matched set,
// Algorithm 3 delivers the event to every matched broker — the routing
// completeness invariant.
func TestAllMatchedAlwaysDelivered(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.Figure7Tree(),
		topology.CW24(),
		topology.Random(18, 6, 5),
		topology.Ring(7),
	} {
		prop, _ := propagate(t, g)
		r, err := NewRouter(g, prop)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Len()
		for origin := 0; origin < n; origin++ {
			for trial := 0; trial < 5; trial++ {
				matched := []topology.NodeID{
					topology.NodeID((origin + trial) % n),
					topology.NodeID((origin + trial*3 + 1) % n),
					topology.NodeID((origin*5 + trial*7 + 2) % n),
				}
				trace := r.Route(topology.NodeID(origin), r.PopularityMatch(matched))
				got := make(map[topology.NodeID]bool)
				for _, d := range trace.Delivered {
					got[d] = true
				}
				for _, m := range matched {
					if !got[m] {
						t.Fatalf("%s: origin %d: matched %v, delivered %v",
							g.Name(), origin, matched, trace.Delivered)
					}
				}
			}
		}
	}
}

// TestContentDrivenRouting wires MatchFunc to real merged summaries: an
// event carrying broker j's distinctive value is delivered to exactly
// broker j.
func TestContentDrivenRouting(t *testing.T) {
	g := topology.CW24()
	prop, s := propagate(t, g)
	r, err := NewRouter(g, prop)
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < g.Len(); target++ {
		ev, err := schema.NewEvent(s, map[string]schema.Value{
			"num00": schema.FloatValue(float64(1000000 + target)),
		})
		if err != nil {
			t.Fatal(err)
		}
		match := func(at topology.NodeID) []topology.NodeID {
			var out []topology.NodeID
			for _, id := range prop.Merged[at].Match(ev) {
				out = append(out, topology.NodeID(id.Broker))
			}
			return out
		}
		trace := r.Route(0, match)
		if len(trace.Delivered) != 1 || trace.Delivered[0] != topology.NodeID(target) {
			t.Fatalf("target %d: delivered %v", target, trace.Delivered)
		}
	}
}

func TestNoDuplicateDeliveries(t *testing.T) {
	g := topology.CW24()
	prop, _ := propagate(t, g)
	r, err := NewRouter(g, prop)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]topology.NodeID, g.Len())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	trace := r.Route(5, r.PopularityMatch(all))
	seen := make(map[topology.NodeID]bool)
	for _, d := range trace.Delivered {
		if seen[d] {
			t.Fatalf("broker %d delivered twice", d)
		}
		seen[d] = true
	}
	if len(trace.Delivered) != g.Len() {
		t.Fatalf("delivered %d of %d", len(trace.Delivered), g.Len())
	}
}

func TestVisitedChainBounded(t *testing.T) {
	g := topology.CW24()
	prop, _ := propagate(t, g)
	r, err := NewRouter(g, prop)
	if err != nil {
		t.Fatal(err)
	}
	trace := r.Route(0, r.PopularityMatch(nil))
	if len(trace.Visited) > g.Len() {
		t.Fatalf("visited %d brokers of %d", len(trace.Visited), g.Len())
	}
	// The chain must visit distinct brokers.
	seen := make(map[topology.NodeID]bool)
	for _, v := range trace.Visited {
		if seen[v] {
			t.Fatalf("broker %d examined twice", v)
		}
		seen[v] = true
	}
}

func TestNewRouterValidation(t *testing.T) {
	g := topology.Ring(4)
	prop := &propagation.Result{MergedBrokers: make([]propagation.BrokerSet, 3)}
	if _, err := NewRouter(g, prop); err == nil {
		t.Fatal("mismatched propagation result accepted")
	}
}

// TestOrder pins the examination order and its next-hop step: the Figure 7
// hub (node 4, degree 5) comes first, ties break by ascending id, and
// NextHop walks that order past BROCLIe.
func TestOrder(t *testing.T) {
	tree := topology.Figure7Tree()
	order := tree.NodesByDegreeDesc()
	if want := []topology.NodeID{4, 7, 10, 1, 6, 9, 0, 2, 3, 5, 8, 11, 12}; !slices.Equal(order, want) {
		t.Fatalf("figure7 order = %v, want %v", order, want)
	}

	// NextHop is the first broker of the order outside BROCLIe.
	brocli := subid.NewMask(tree.Len())
	for _, want := range order {
		got, ok := NextHop(order, brocli)
		if !ok || got != want {
			t.Fatalf("NextHop = %d,%v; want %d", got, ok, want)
		}
		brocli.Set(int(want))
	}
	if _, ok := NextHop(order, brocli); ok {
		t.Fatal("NextHop found a broker outside a complete BROCLIe")
	}
}

// TestResumedNextHopIsTheFullScan walks seeded events over the Figure 7
// tree, CW24 and a 256-broker transit-stub overlay. At each hop BROCLIe
// grows by a random Merged_Brokers set, which holds the hop's own broker
// three times in four (so a walk is sometimes forwarded to the broker it
// is at), and the resumed scan, Order.NextHop, must return what the full
// scan from the order's start returns.
func TestResumedNextHopIsTheFullScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"figure7", topology.Figure7Tree()},
		{"cw24", topology.CW24()},
		{"ts256", topology.TransitStub(256, 256)},
	} {
		rng := rand.New(rand.NewSource(47))
		n, o := tc.g.Len(), NewOrder(tc.g)
		full := tc.g.NodesByDegreeDesc()
		if !slices.Equal(o.Nodes(), full) {
			t.Fatalf("%s: order %v, want %v", tc.name, o.Nodes(), full)
		}
		hops, longest := 0, 0
		for walk := 0; walk < 300; walk++ {
			brocli := subid.NewMask(n)
			at, forwarded := topology.NodeID(rng.Intn(n)), false
			for hop := 0; ; hop++ {
				if rng.Intn(4) > 0 {
					brocli.Set(int(at))
				}
				for k := rng.Intn(1 + n/16); k > 0; k-- {
					brocli.Set(rng.Intn(n))
				}
				want, wantOK := NextHop(full, brocli)
				got, ok := o.NextHop(at, forwarded, brocli)
				if got != want || ok != wantOK {
					t.Fatalf("%s walk %d hop %d at %d (forwarded %v): NextHop = %d,%v; the full scan %d,%v",
						tc.name, walk, hop, at, forwarded, got, ok, want, wantOK)
				}
				if !ok {
					hops, longest = hops+hop, max(longest, hop)
					break
				}
				at, forwarded = got, true
			}
		}
		t.Logf("%s: %d hops in all, the longest walk %d", tc.name, hops, longest)
	}
}

// BenchmarkNextHopWalk times the forwarding scans of a walk over the
// 256-broker transit-stub overlay in which every hop's broker adds itself
// and the next two brokers of the order to BROCLIe: a walk of about a
// third of the brokers, as in a period of partial knowledge.
func BenchmarkNextHopWalk(b *testing.B) {
	g := topology.TransitStub(256, 256)
	o := NewOrder(g)
	rank := make([]int, g.Len())
	for r, node := range o.Nodes() {
		rank[node] = r
	}
	brocli := subid.NewMask(g.Len())
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(brocli)
		at, forwarded := o.Nodes()[g.Len()-1], false
		for {
			for r := rank[at]; r < min(rank[at]+3, g.Len()); r++ {
				brocli.Set(int(o.Nodes()[r]))
			}
			next, ok := o.NextHop(at, forwarded, brocli)
			if !ok {
				break
			}
			at, forwarded = next, true
			hops++
		}
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/walk")
}

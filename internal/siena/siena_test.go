package siena

import (
	"math/rand"
	"testing"

	"github.com/subsum/subsum/internal/schema"
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

func sub(t testing.TB, s *schema.Schema, text string) *schema.Subscription {
	t.Helper()
	out, err := schema.ParseSubscription(s, text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	return out
}

func TestSubsumesTable(t *testing.T) {
	s := stockSchema(t)
	cases := []struct {
		a, b string
		want bool
	}{
		// Wider range subsumes narrower.
		{`price > 8`, `price > 9`, true},
		{`price > 9`, `price > 8`, false},
		{`price > 8`, `price > 8.5 && price < 9`, true},
		{`price > 8 && price < 10`, `price > 8.5 && price < 9`, true},
		{`price > 8.6 && price < 10`, `price > 8.5 && price < 9`, false},
		// Equality inside range.
		{`price > 8`, `price = 9`, true},
		{`price > 8`, `price = 8`, false},
		{`price = 9`, `price = 9`, true},
		{`price = 9`, `price > 8`, false},
		// Fewer attributes subsume more.
		{`price > 8`, `price > 9 && volume > 100`, true},
		{`price > 8 && volume > 100`, `price > 9`, false},
		// String covering.
		{`symbol >* OT`, `symbol = OTE`, true},
		{`symbol = OTE`, `symbol >* OT`, false},
		{`symbol >* OT`, `symbol >* OTE`, true},
		{`exchange = "N*SE"`, `exchange = NYSE`, true},
		{`exchange = "N*SE"`, `exchange = LSE`, false},
		// Mixed.
		{`symbol >* OT && price > 8`, `symbol = OTE && price = 9`, true},
		{`symbol >* OT && price > 8`, `symbol = OTE && price = 7`, false},
		// Not-equal.
		{`price != 5`, `price > 6`, true},
		{`price != 5`, `price > 4`, false},
		{`price != 5`, `price != 5`, true},
		{`exchange != NYSE`, `exchange = LSE`, true},
		{`exchange != NYSE`, `exchange = NYSE`, false},
		// Empty b matches nothing: subsumed by anything.
		{`price > 100`, `price > 5 && price < 4`, true},
	}
	for i, c := range cases {
		a, b := sub(t, s, c.a), sub(t, s, c.b)
		if got := Subsumes(s, a, b); got != c.want {
			t.Errorf("case %d: Subsumes(%q, %q) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestSubsumesSoundnessRandomized: whenever Subsumes(a,b), every random
// event matching b must match a.
func TestSubsumesSoundnessRandomized(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	rng := rand.New(rand.NewSource(4))
	var subs []*schema.Subscription
	for i := 0; i < 120; i++ {
		subs = append(subs, gen.AnchoredSubscription(0.8))
	}
	pairs := 0
	for i := 0; i < len(subs); i++ {
		for j := 0; j < len(subs); j++ {
			if i == j || !Subsumes(s, subs[i], subs[j]) {
				continue
			}
			pairs++
			for probe := 0; probe < 30; probe++ {
				ev := gen.Event(rng.Float64())
				if subs[j].Matches(ev) && !subs[i].Matches(ev) {
					t.Fatalf("unsound: %q subsumes %q but event %s matches only the latter",
						subs[i].Format(s), subs[j].Format(s), ev.Format(s))
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no subsuming pairs generated; workload misconfigured for this test")
	}
}

func TestPropagateModelZeroSubsumptionFloodsEverything(t *testing.T) {
	g := topology.CW24()
	sigma := 10
	stats := PropagateModel(g, sigma, 50, 0, 1)
	n := g.Len()
	// Every subscription reaches every other broker over the spanning
	// tree: (n-1) messages each, n·sigma subscriptions.
	wantHops := n * sigma * (n - 1)
	if stats.Hops != wantHops {
		t.Fatalf("hops = %d, want %d", stats.Hops, wantHops)
	}
	if stats.Bytes != int64(wantHops)*50 {
		t.Fatalf("bytes = %d", stats.Bytes)
	}
	// Every broker stores all n·sigma subscriptions.
	for b, held := range stats.Stored {
		if held != n*sigma {
			t.Fatalf("broker %d stores %d, want %d", b, held, n*sigma)
		}
	}
}

func TestPropagateModelSubsumptionReducesCost(t *testing.T) {
	g := topology.CW24()
	low := PropagateModel(g, 50, 50, 0.1, 1)
	high := PropagateModel(g, 50, 50, 0.9, 1)
	if high.Hops >= low.Hops {
		t.Fatalf("hops: high subsumption %d !< low %d", high.Hops, low.Hops)
	}
	if high.StorageBytes >= low.StorageBytes {
		t.Fatalf("storage: high %d !< low %d", high.StorageBytes, low.StorageBytes)
	}
	// Deterministic for a seed.
	again := PropagateModel(g, 50, 50, 0.9, 1)
	if again.Hops != high.Hops {
		t.Fatal("not deterministic")
	}
}

func TestRouteEventSingleMatch(t *testing.T) {
	g := topology.Figure7Tree()
	// Event at broker 1 (node 0) matching broker 9 (node 8):
	// path 1-2-5-7-8-9 = 5 hops.
	if got := RouteEvent(g, 0, []topology.NodeID{8}); got != 5 {
		t.Fatalf("hops = %d, want 5", got)
	}
	// Matching itself costs nothing.
	if got := RouteEvent(g, 0, []topology.NodeID{0}); got != 0 {
		t.Fatalf("self hops = %d", got)
	}
	if got := RouteEvent(g, 0, nil); got != 0 {
		t.Fatalf("empty hops = %d", got)
	}
}

func TestRouteEventSharedPrefixCountedOnce(t *testing.T) {
	g := topology.Figure7Tree()
	// From broker 1 to brokers 9 and 10: paths share 1-2-5-7-8; then one
	// hop each to 9 and 10: total 5 + 1 = 6? Path to 9: 1-2-5-7-8-9 (5
	// edges), to 10: 1-2-5-7-8-10 (5 edges), shared prefix 4 edges →
	// union = 4 + 1 + 1 = 6.
	got := RouteEvent(g, 0, []topology.NodeID{8, 9})
	if got != 6 {
		t.Fatalf("hops = %d, want 6", got)
	}
	// All brokers matched: the whole tree = 12 edges.
	all := make([]topology.NodeID, g.Len())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	if got := RouteEvent(g, 0, all); got != 12 {
		t.Fatalf("hops = %d, want 12 (every tree edge)", got)
	}
}

func TestPropagateRealSubsumptionSavesMessages(t *testing.T) {
	g := topology.CW24()
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	build := func(p float64) PropagationStats {
		var subs []OwnedSub
		for b := 0; b < g.Len(); b++ {
			for k := 0; k < 20; k++ {
				subs = append(subs, OwnedSub{
					Owner: topology.NodeID(b),
					Sub:   gen.AnchoredSubscription(p),
				})
			}
		}
		return PropagateReal(g, s, subs)
	}
	low := build(0.05)
	high := build(0.95)
	if high.Hops >= low.Hops {
		t.Fatalf("real subsumption: high %d hops !< low %d", high.Hops, low.Hops)
	}
	if low.Bytes <= 0 || low.StorageBytes <= 0 {
		t.Fatalf("accounting: %+v", low)
	}
	// Upper bound: flooding cost.
	n := g.Len()
	if low.Hops > n*20*(n-1) {
		t.Fatalf("hops exceed flooding bound: %d", low.Hops)
	}
}

// OwnedSub pairs a subscription with its owner for real propagation.
type OwnedSub struct {
	Owner topology.NodeID
	Sub   *schema.Subscription
}

// PropagateReal performs Siena propagation with genuine subsumption: each
// subscription floods its owner's BFS tree, but a broker does not forward
// a subscription over a tree edge on which it has already forwarded a
// subsuming subscription. Subscriptions are processed in the given order
// (arrival order matters for subsumption, as in Siena). Bytes use each
// subscription's modelled wire size.
func PropagateReal(g *topology.Graph, s *schema.Schema, subs []OwnedSub) PropagationStats {
	n := g.Len()
	stats := PropagationStats{Stored: make([]int, n)}
	type edge struct{ from, to topology.NodeID }
	forwarded := make(map[edge][]*schema.Subscription)
	children := make([][][]topology.NodeID, n)
	for src := 0; src < n; src++ {
		_, parent := g.BFSFrom(topology.NodeID(src))
		ch := make([][]topology.NodeID, n)
		for node, p := range parent {
			if p >= 0 {
				ch[p] = append(ch[p], topology.NodeID(node))
			}
		}
		children[src] = ch
	}
	for _, os := range subs {
		stats.Stored[os.Owner]++
		size := int64(os.Sub.WireSize())
		queue := []topology.NodeID{os.Owner}
		for len(queue) > 0 {
			b := queue[0]
			queue = queue[1:]
			for _, c := range children[os.Owner][b] {
				e := edge{from: b, to: c}
				if covered(s, forwarded[e], os.Sub) {
					continue
				}
				forwarded[e] = append(forwarded[e], os.Sub)
				stats.Hops++
				stats.Bytes += size
				stats.Stored[c]++
				queue = append(queue, c)
			}
		}
	}
	// Storage counts each held subscription at the batch's mean modelled
	// size.
	var meanSize int64
	if len(subs) > 0 {
		var total int64
		for _, os := range subs {
			total += int64(os.Sub.WireSize())
		}
		meanSize = total / int64(len(subs))
	}
	for _, held := range stats.Stored {
		stats.StorageBytes += int64(held) * meanSize
	}
	return stats
}

func covered(s *schema.Schema, prior []*schema.Subscription, sub *schema.Subscription) bool {
	for _, p := range prior {
		if Subsumes(s, p, sub) {
			return true
		}
	}
	return false
}

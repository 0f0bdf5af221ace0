package topology

import (
	"strings"
	"testing"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New("t", 3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

// TestFigure7TreeDegrees checks the reconstructed example tree against the
// degree facts stated in the paper's walkthrough of Figure 7.
func TestFigure7TreeDegrees(t *testing.T) {
	g := Figure7Tree()
	if g.Len() != 13 || g.NumEdges() != 12 {
		t.Fatalf("graph = %s", g)
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	// Paper broker k = node k-1.
	wantDegree := map[int]int{
		1: 1, 2: 2, 3: 1, 4: 1, 5: 5, 6: 1, 7: 2,
		8: 3, 9: 1, 10: 2, 11: 3, 12: 1, 13: 1,
	}
	for broker, want := range wantDegree {
		if got := g.Degree(NodeID(broker - 1)); got != want {
			t.Errorf("broker %d degree = %d, want %d", broker, got, want)
		}
	}
	if g.MaxDegree() != 5 {
		t.Fatalf("MaxDegree = %d, want 5 (broker 5)", g.MaxDegree())
	}
	// Broker 5's neighbors are 2, 3, 4, 6, 7.
	neigh := g.Neighbors(4)
	want := []NodeID{1, 2, 3, 5, 6}
	if len(neigh) != len(want) {
		t.Fatalf("broker 5 neighbors = %v", neigh)
	}
	for i := range want {
		if neigh[i] != want[i] {
			t.Fatalf("broker 5 neighbors = %v, want %v", neigh, want)
		}
	}
}

func TestCW24Shape(t *testing.T) {
	g := CW24()
	if g.Len() != 24 {
		t.Fatalf("Len = %d", g.Len())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	if got := g.MaxDegree(); got < 4 || got > 9 {
		t.Fatalf("MaxDegree = %d, want backbone-like 4..7", got)
	}
	if md := g.MeanDegree(); md < 2 || md > 4 {
		t.Fatalf("MeanDegree = %.2f, want backbone-like 2..4", md)
	}
	if d := g.Diameter(); d < 3 || d > 9 {
		t.Fatalf("Diameter = %d, want backbone-like", d)
	}
	if mh := g.MeanPairHops(); mh < 2 || mh > 5 {
		t.Fatalf("MeanPairHops = %.2f", mh)
	}
}

func TestBFSFrom(t *testing.T) {
	g := Figure7Tree()
	dist, parent := g.BFSFrom(0) // paper broker 1
	// Broker 1 → 2 is 1 hop; 1 → 5 is 2; 1 → 8 is 4 (1-2-5-7-8).
	if dist[1] != 1 || dist[4] != 2 || dist[7] != 4 {
		t.Fatalf("dist = %v", dist)
	}
	if parent[0] != -1 {
		t.Fatalf("root parent = %d", parent[0])
	}
	// Parent chain from node 7 (broker 8) leads back to 0.
	steps := 0
	for n := NodeID(7); n != 0; n = parent[n] {
		steps++
		if steps > 13 {
			t.Fatal("parent chain does not terminate")
		}
	}
	if steps != dist[7] {
		t.Fatalf("parent chain %d hops, dist %d", steps, dist[7])
	}
}

func TestNodesByDegreeDesc(t *testing.T) {
	g := Figure7Tree()
	order := g.NodesByDegreeDesc()
	if order[0] != 4 { // broker 5
		t.Fatalf("order[0] = %d, want 4 (broker 5)", order[0])
	}
	for i := 1; i < len(order); i++ {
		di, dj := g.Degree(order[i-1]), g.Degree(order[i])
		if di < dj {
			t.Fatal("order not by descending degree")
		}
		if di == dj && order[i-1] > order[i] {
			t.Fatal("ties not broken by ascending id")
		}
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		g         *Graph
		nodes     int
		edges     int
		maxDegree int
	}{
		{Ring(5), 5, 5, 2},
		{Star(6), 6, 5, 5},
		{Grid(3, 4), 12, 17, 4},
		{RandomTree(20, 1), 20, 19, -1},
		{Random(30, 10, 2), 30, 39, -1},
	}
	for _, c := range cases {
		if c.g.Len() != c.nodes {
			t.Errorf("%s: Len = %d, want %d", c.g.Name(), c.g.Len(), c.nodes)
		}
		if c.g.NumEdges() != c.edges {
			t.Errorf("%s: edges = %d, want %d", c.g.Name(), c.g.NumEdges(), c.edges)
		}
		if c.maxDegree > 0 && c.g.MaxDegree() != c.maxDegree {
			t.Errorf("%s: MaxDegree = %d, want %d", c.g.Name(), c.g.MaxDegree(), c.maxDegree)
		}
		if !c.g.Connected() {
			t.Errorf("%s: not connected", c.g.Name())
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(25, 8, 42)
	b := Random(25, 8, 42)
	if a.DOT() != b.DOT() {
		t.Fatal("same seed produced different graphs")
	}
	c := Random(25, 8, 43)
	if a.DOT() == c.DOT() {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestAllPairsHopsSymmetric(t *testing.T) {
	g := CW24()
	h := g.AllPairsHops()
	for i := range h {
		if h[i][i] != 0 {
			t.Fatalf("h[%d][%d] = %d", i, i, h[i][i])
		}
		for j := range h[i] {
			if h[i][j] != h[j][i] {
				t.Fatalf("asymmetric: h[%d][%d]=%d h[%d][%d]=%d", i, j, h[i][j], j, i, h[j][i])
			}
		}
	}
}

func TestDOTAndString(t *testing.T) {
	g := Ring(3)
	dot := g.DOT()
	if !strings.Contains(dot, "0 -- 1") || !strings.Contains(dot, "graph") {
		t.Fatalf("DOT = %s", dot)
	}
	if !strings.Contains(g.String(), "3 nodes") {
		t.Fatalf("String = %s", g.String())
	}
}

func TestATT33Shape(t *testing.T) {
	g := ATT33()
	if g.Len() != 33 {
		t.Fatalf("Len = %d", g.Len())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	if got := g.MaxDegree(); got < 6 || got > 12 {
		t.Fatalf("MaxDegree = %d, want hub-like", got)
	}
	if md := g.MeanDegree(); md < 2.5 || md > 4.5 {
		t.Fatalf("MeanDegree = %.2f", md)
	}
	// Chicago (node 9) is the dominant hub, as in CW24.
	order := g.NodesByDegreeDesc()
	if order[0] != 9 {
		t.Fatalf("top hub = %d, want 9", order[0])
	}
}

func TestWaxman(t *testing.T) {
	g := Waxman(40, 0.4, 0.15, 7)
	if g.Len() != 40 || !g.Connected() {
		t.Fatalf("graph = %s connected=%v", g, g.Connected())
	}
	// Deterministic per seed.
	if g.DOT() != Waxman(40, 0.4, 0.15, 7).DOT() {
		t.Fatal("not deterministic")
	}
	if g.DOT() == Waxman(40, 0.4, 0.15, 8).DOT() {
		t.Fatal("seed has no effect")
	}
	// Higher alpha means denser graphs.
	dense := Waxman(40, 0.9, 0.3, 7)
	if dense.NumEdges() <= g.NumEdges() {
		t.Fatalf("alpha knob ineffective: %d <= %d", dense.NumEdges(), g.NumEdges())
	}
	// Degenerate parameters rejected.
	for _, fn := range []func(){
		func() { Waxman(1, 0.4, 0.1, 1) },
		func() { Waxman(10, 0.4, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Waxman parameters accepted")
				}
			}()
			fn()
		}()
	}
}

// TestPropagationShapesHoldOnAllTopologies: the headline propagation
// property (hops ≤ brokers, full coverage) holds on the full topology
// suite, including the new ATT33 and Waxman graphs.
func TestTopologySuiteConnectivity(t *testing.T) {
	for _, g := range []*Graph{CW24(), ATT33(), Figure7Tree(), Waxman(30, 0.4, 0.15, 3), Random(30, 12, 4), Grid(4, 6), Ring(9), Star(11)} {
		if !g.Connected() {
			t.Errorf("%s not connected", g.Name())
		}
		if g.MeanPairHops() <= 0 {
			t.Errorf("%s mean hops = %f", g.Name(), g.MeanPairHops())
		}
	}
}

// AllPairsHops returns the full hop-distance matrix.
func (g *Graph) AllPairsHops() [][]int {
	out := make([][]int, len(g.adj))
	for i := range out {
		out[i], _ = g.BFSFrom(NodeID(i))
	}
	return out
}

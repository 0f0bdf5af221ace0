// Package topology models the broker overlay networks of the
// subscription-summarization paper's evaluation (Section 5.2): the 24-node
// ISP backbone the experiments run on, the 13-broker example tree of
// Figure 7, and generators for random, tree, ring, star, and grid
// overlays. It provides the graph queries the propagation and routing
// algorithms need: degrees, BFS hop distances, and per-source spanning
// trees (for the Siena comparator's subscription forwarding).
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// NodeID identifies a broker in the overlay (0-based).
type NodeID int

// Graph is an undirected, connected broker overlay. Build with New and
// AddEdge, or use one of the constructors.
type Graph struct {
	name  string
	adj   [][]NodeID // sorted adjacency lists
	edges int
}

// New returns a graph with n isolated nodes.
func New(name string, n int) *Graph {
	if n < 1 {
		panic("topology: graph needs at least one node")
	}
	return &Graph{name: name, adj: make([][]NodeID, n)}
}

// Name returns the topology's human-readable name.
func (g *Graph) Name() string { return g.name }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.adj) }

// NumEdges returns the number of undirected edges. A test hook: the
// topology and subsum-bench tests check generated overlays with it.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge inserts an undirected edge; self-loops and duplicates are
// rejected.
func (g *Graph) AddEdge(a, b NodeID) error {
	if a == b {
		return fmt.Errorf("topology: self-loop at %d", a)
	}
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("topology: edge %d-%d out of range", a, b)
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("topology: duplicate edge %d-%d", a, b)
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge panicking on error; for literal topologies.
func (g *Graph) MustAddEdge(a, b NodeID) {
	if err := g.AddEdge(a, b); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.adj) }

// HasEdge reports whether a and b are neighbors.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if !g.valid(a) || !g.valid(b) {
		return false
	}
	list := g.adj[a]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= b })
	return i < len(list) && list[i] == b
}

// Neighbors returns the sorted neighbor list of n (shared; do not mutate).
func (g *Graph) Neighbors(n NodeID) []NodeID { return g.adj[n] }

// Degree returns the number of neighbors of n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// MaxDegree returns the maximum degree over all nodes (the iteration count
// of the paper's Algorithm 2).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, l := range g.adj {
		if len(l) > max {
			max = len(l)
		}
	}
	return max
}

// MeanDegree returns the average node degree.
func (g *Graph) MeanDegree() float64 {
	return 2 * float64(g.edges) / float64(len(g.adj))
}

// NodesByDegreeDesc returns all node ids sorted by decreasing degree,
// ties broken by ascending id: the order in which Algorithm 3 picks "the
// broker with the greatest degree not in BROCLIe". routing.Order returns
// it for the strategies that advertise true degrees, which is how the
// deterministic router and the live engine get it; the benchmark harness
// and subsum-topo call it directly to find an overlay's hubs.
func (g *Graph) NodesByDegreeDesc() []NodeID {
	out := make([]NodeID, len(g.adj))
	for i := range out {
		out[i] = NodeID(i)
	}
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := g.Degree(out[i]), g.Degree(out[j])
		if di != dj {
			return di > dj
		}
		return out[i] < out[j]
	})
	return out
}

// BFSFrom returns the hop distance from src to every node (-1 if
// unreachable) and the BFS parent of each node (-1 for src/unreachable).
// The BFS tree is the minimum-hop spanning tree rooted at src, which is
// what the Siena comparator uses both for per-source subscription
// forwarding and reverse-path event routing.
func (g *Graph) BFSFrom(src NodeID) (dist []int, parent []NodeID) {
	dist = make([]int, len(g.adj))
	parent = make([]NodeID, len(g.adj))
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g.adj[n] {
			if dist[m] < 0 {
				dist[m] = dist[n] + 1
				parent[m] = n
				queue = append(queue, m)
			}
		}
	}
	return dist, parent
}

// Connected reports whether every node is reachable from node 0. A test
// hook: the topology, subsum-topo and facade tests check generated
// overlays with it.
func (g *Graph) Connected() bool {
	dist, _ := g.BFSFrom(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// MeanPairHops returns the mean hop distance over ordered distinct pairs
// (the "average number of hops from any broker to any other" of the
// baseline cost model in Section 5.2.1).
func (g *Graph) MeanPairHops() float64 {
	total, pairs := 0, 0
	for i := 0; i < len(g.adj); i++ {
		dist, _ := g.BFSFrom(NodeID(i))
		for j, d := range dist {
			if i != j && d > 0 {
				total += d
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(total) / float64(pairs)
}

// Diameter returns the maximum hop distance between any pair.
func (g *Graph) Diameter() int {
	max := 0
	for i := 0; i < len(g.adj); i++ {
		dist, _ := g.BFSFrom(NodeID(i))
		for _, d := range dist {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// DOT renders the graph in Graphviz format for inspection.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", g.name)
	for a := range g.adj {
		for _, n := range g.adj[a] {
			if NodeID(a) < n {
				fmt.Fprintf(&b, "  %d -- %d;\n", a, n)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d nodes, %d edges, max degree %d, mean degree %.2f",
		g.name, g.Len(), g.edges, g.MaxDegree(), g.MeanDegree())
}

func insertSorted(list []NodeID, n NodeID) []NodeID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= n })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = n
	return list
}

// Figure7Tree returns the 13-broker example tree of the paper's Figure 7.
// Node k here is the paper's broker k+1; e.g. node 4 is the paper's
// highest-degree broker 5. Degrees: paper brokers 1,3,4,6,9,12,13 have
// degree 1; 2,7,10 degree 2; 8,11 degree 3; 5 degree 5.
func Figure7Tree() *Graph {
	g := New("figure7", 13)
	edges := [][2]int{
		{1, 2}, {2, 5}, {3, 5}, {4, 5}, {6, 5}, {7, 5},
		{7, 8}, {9, 8}, {10, 8}, {10, 11}, {12, 11}, {13, 11},
	}
	for _, e := range edges {
		g.MustAddEdge(NodeID(e[0]-1), NodeID(e[1]-1))
	}
	return g
}

// CW24 returns a 24-node broker overlay approximating the Cable & Wireless
// plc US backbone used in the paper's evaluation (reference [4] is a dead
// 2004 URL; this mesh reproduces the published degree profile of C&W/AT&T
// backbone maps of that era: 24 nodes, ~33 links, max degree 6, mean
// degree ≈ 2.8). Figures 8–11 depend on node count, degree distribution,
// and hop distances, all preserved here; the paper notes results are
// similar across all tested topologies.
func CW24() *Graph {
	g := New("cw24", 24)
	// Node roles: 0 Seattle, 1 San Jose, 2 Los Angeles, 3 Phoenix,
	// 4 Salt Lake, 5 Denver, 6 Dallas, 7 Houston, 8 Kansas City,
	// 9 Chicago, 10 St Louis, 11 Atlanta, 12 Miami, 13 Washington DC,
	// 14 New York, 15 Newark, 16 Boston, 17 Philadelphia, 18 Cleveland,
	// 19 Detroit, 20 Minneapolis, 21 Nashville, 22 New Orleans,
	// 23 Raleigh.
	edges := [][2]int{
		{0, 1}, {0, 4}, {0, 20},
		{1, 2}, {1, 4}, {1, 9},
		{2, 3}, {2, 6},
		{3, 6},
		{4, 5},
		{5, 8}, {5, 9},
		{6, 7}, {6, 8}, {6, 21}, {6, 9},
		{7, 22},
		{8, 10}, {8, 9},
		{9, 19}, {9, 20}, {9, 14}, {9, 18}, {9, 11},
		{10, 21},
		{11, 21}, {11, 12}, {11, 13}, {11, 22}, {11, 23},
		{12, 22},
		{13, 14}, {13, 17}, {13, 23},
		{14, 15}, {14, 16}, {14, 17},
		{15, 16},
		{18, 19},
	}
	for _, e := range edges {
		g.MustAddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	return g
}

// ATT33 returns a 33-node broker overlay in the style of the AT&T IP
// backbone of the paper's era — the upper end of the "20 to 33 backbone
// nodes" range of single-ISP CDNs the paper cites. Like CW24 it is a
// sparse mesh with regional hubs; Chicago (node 9), Dallas (node 6), and
// Atlanta (node 11) anchor the core, with a second tier of metro hubs.
func ATT33() *Graph {
	g := New("att33", 33)
	// Nodes 0-23 mirror the CW24 roles; 24-32 add: 24 Portland,
	// 25 Sacramento, 26 Las Vegas, 27 Austin, 28 Memphis, 29 Indianapolis,
	// 30 Pittsburgh, 31 Hartford, 32 Orlando.
	edges := [][2]int{
		{0, 1}, {0, 4}, {0, 20}, {0, 24},
		{1, 2}, {1, 4}, {1, 9}, {1, 25},
		{2, 3}, {2, 6}, {2, 26},
		{3, 6}, {3, 26},
		{4, 5},
		{5, 8}, {5, 9},
		{6, 7}, {6, 8}, {6, 21}, {6, 9}, {6, 27},
		{7, 22}, {7, 27},
		{8, 10}, {8, 9},
		{9, 19}, {9, 20}, {9, 14}, {9, 18}, {9, 11}, {9, 29},
		{10, 21}, {10, 28},
		{11, 21}, {11, 12}, {11, 13}, {11, 22}, {11, 23}, {11, 32},
		{12, 22}, {12, 32},
		{13, 14}, {13, 17}, {13, 23}, {13, 30},
		{14, 15}, {14, 16}, {14, 17}, {14, 31},
		{15, 16},
		{16, 31},
		{18, 19}, {18, 30},
		{21, 28},
		{24, 25},
		{29, 10},
	}
	for _, e := range edges {
		g.MustAddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	return g
}

// Waxman returns a connected random overlay with the Waxman locality
// model: nodes are placed uniformly on the unit square and each pair is
// linked with probability alpha·exp(−d/(beta·√2)), where d is Euclidean
// distance; a random spanning tree guarantees connectivity. Classic
// parameters are alpha ≈ 0.4, beta ≈ 0.1 for sparse internet-like graphs.
// Deterministic per seed.
func Waxman(n int, alpha, beta float64, seed int64) *Graph {
	if n < 2 {
		panic("topology: waxman needs at least 2 nodes")
	}
	if beta <= 0 {
		panic("topology: waxman beta must be positive")
	}
	g := New(fmt.Sprintf("waxman-%d", n), n)
	rng := rand.New(rand.NewSource(seed))
	type point struct{ x, y float64 }
	pts := make([]point, n)
	for i := range pts {
		pts[i] = point{x: rng.Float64(), y: rng.Float64()}
	}
	maxDist := math.Sqrt2
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
			d := math.Sqrt(dx*dx + dy*dy)
			if rng.Float64() < alpha*math.Exp(-d/(beta*maxDist)) {
				g.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	// Guarantee connectivity with a random attachment tree over the
	// missing links.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a, b := NodeID(perm[i]), NodeID(perm[rng.Intn(i)])
		if !g.HasEdge(a, b) {
			g.MustAddEdge(a, b)
		}
	}
	return g
}

// Random returns a connected random overlay: a uniform random spanning
// tree plus extraEdges additional distinct random edges. Deterministic for
// a given seed.
func Random(n, extraEdges int, seed int64) *Graph {
	g := New(fmt.Sprintf("random-%d-%d", n, extraEdges), n)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach each node to a random earlier node: uniform attachment tree.
		a := NodeID(perm[i])
		b := NodeID(perm[rng.Intn(i)])
		g.MustAddEdge(a, b)
	}
	for added := 0; added < extraEdges; {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a == b || g.HasEdge(a, b) {
			continue
		}
		g.MustAddEdge(a, b)
		added++
	}
	return g
}

// RandomTree returns a connected random tree on n nodes. A test hook: the
// propagation tests run Algorithm 2 over random trees.
func RandomTree(n int, seed int64) *Graph {
	g := Random(n, 0, seed)
	g.name = fmt.Sprintf("tree-%d", n)
	return g
}

// Ring returns a cycle of n ≥ 3 nodes.
func Ring(n int) *Graph {
	if n < 3 {
		panic("topology: ring needs at least 3 nodes")
	}
	g := New(fmt.Sprintf("ring-%d", n), n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return g
}

// Star returns a star of n ≥ 2 nodes with node 0 at the hub.
func Star(n int) *Graph {
	if n < 2 {
		panic("topology: star needs at least 2 nodes")
	}
	g := New(fmt.Sprintf("star-%d", n), n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, NodeID(i))
	}
	return g
}

// Grid returns a rows×cols mesh.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("topology: grid needs at least 2 nodes")
	}
	g := New(fmt.Sprintf("grid-%dx%d", rows, cols), rows*cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

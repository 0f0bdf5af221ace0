// Large-overlay generators for the 100–1000-broker scaling experiments
// (ROADMAP item 2). The paper's evaluation stops at the 24-node CW
// backbone; these three families — transit-stub, random-geometric, and
// preferential-attachment — are the standard internet-like topologies
// used to extend pub/sub evaluations beyond a single ISP map. All are
// deterministic per seed and connected by construction, so experiment
// results are reproducible bit-for-bit.
package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// TransitStub returns a GT-ITM-style two-level hierarchy: a small
// transit backbone (ring plus chords) with stub domains hanging off each
// transit node. See TransitStubRegions for the region structure.
func TransitStub(n int, seed int64) *Graph {
	g, _ := TransitStubRegions(n, seed)
	return g
}

// TransitStubRegions is TransitStub exposing the region assignment: the
// second return value maps each node to the index of the transit node
// whose subtree it belongs to (transit node i is its own region i).
// Workloads that want geographically correlated interests, such as the
// overlay-scaling sweep, key their interest regions off this assignment.
//
// The shape scales with n: ~√n/2 transit nodes, each anchoring several
// stub domains of ~n/(4·transit) nodes (a random attachment tree plus a
// chord). Stub domains connect to their transit node through one
// gateway, with a second gateway to the next transit node on ~30% of
// domains (multi-homing), matching the GT-ITM defaults.
func TransitStubRegions(n int, seed int64) (*Graph, []int) {
	if n < 4 {
		panic("topology: transit-stub needs at least 4 nodes")
	}
	transit := int(math.Round(math.Sqrt(float64(n)) / 2))
	if transit < 2 {
		transit = 2
	}
	if transit > 32 {
		transit = 32
	}
	if transit > n/2 {
		transit = n / 2
	}
	g := New(fmt.Sprintf("transit-stub-%d", n), n)
	rng := rand.New(rand.NewSource(seed))
	regions := make([]int, n)

	// Transit backbone: ring plus cross-chords for path diversity.
	for i := 0; i < transit; i++ {
		regions[i] = i
		if transit > 2 || i == 0 {
			g.MustAddEdge(NodeID(i), NodeID((i+1)%transit))
		}
	}
	for i := 0; transit >= 6 && i < transit/2; i++ {
		a, b := NodeID(i), NodeID((i+transit/2)%transit)
		if !g.HasEdge(a, b) {
			g.MustAddEdge(a, b)
		}
	}

	// Stub domains: consecutive id blocks of size ~n/(4·transit), dealt
	// round-robin to transit parents so regions stay balanced.
	domainSize := n / (4 * transit)
	if domainSize < 2 {
		domainSize = 2
	}
	if domainSize > 12 {
		domainSize = 12
	}
	parent := 0
	for lo := transit; lo < n; lo += domainSize {
		hi := lo + domainSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			regions[i] = parent
		}
		// Random attachment tree inside the domain, plus one chord when
		// the domain is big enough to have a non-tree edge.
		for i := lo + 1; i < hi; i++ {
			g.MustAddEdge(NodeID(i), NodeID(lo+rng.Intn(i-lo)))
		}
		if hi-lo >= 4 {
			for {
				a, b := NodeID(lo+rng.Intn(hi-lo)), NodeID(lo+rng.Intn(hi-lo))
				if a != b && !g.HasEdge(a, b) {
					g.MustAddEdge(a, b)
					break
				}
			}
		}
		// Gateway up to the transit parent; multi-home the last node to
		// the next transit node on some domains.
		g.MustAddEdge(NodeID(lo), NodeID(parent))
		if second := (parent + 1) % transit; second != parent && rng.Float64() < 0.3 {
			if !g.HasEdge(NodeID(hi-1), NodeID(second)) {
				g.MustAddEdge(NodeID(hi-1), NodeID(second))
			}
		}
		parent = (parent + 1) % transit
	}
	return g, regions
}

// RandomGeometric returns a random geometric graph: n points placed
// uniformly on the unit square, every pair within the given radius
// linked. A radius ≤ 0 picks 1.4× the connectivity threshold
// √(ln n / πn). Components left over after the radius pass are bridged
// by the geometrically closest inter-component pair, so the graph is
// always connected while staying locality-faithful. Deterministic per
// seed.
func RandomGeometric(n int, radius float64, seed int64) *Graph {
	if n < 2 {
		panic("topology: random-geometric needs at least 2 nodes")
	}
	if radius <= 0 {
		radius = 1.4 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	}
	g := New(fmt.Sprintf("geo-%d", n), n)
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	dist2 := func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return dx*dx + dy*dy
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist2(i, j) <= r2 {
				g.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	// Bridge remaining components along the shortest gaps.
	for {
		dist, _ := g.BFSFrom(0)
		bestI, bestJ, bestD := -1, -1, math.MaxFloat64
		for i := 0; i < n; i++ {
			if dist[i] < 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[j] >= 0 {
					continue
				}
				if d := dist2(i, j); d < bestD {
					bestI, bestJ, bestD = i, j, d
				}
			}
		}
		if bestI < 0 {
			return g
		}
		g.MustAddEdge(NodeID(bestI), NodeID(bestJ))
	}
}

// PreferentialAttachment returns a Barabási–Albert scale-free overlay:
// a seed clique of m+1 nodes, then each new node attaches to m distinct
// existing nodes chosen proportionally to degree. The resulting hub
// structure is the stress case for Algorithm 3's degree-ordered walk —
// a few brokers of very high degree dominate the examination order.
// m ≤ 0 defaults to 2. Deterministic per seed.
func PreferentialAttachment(n, m int, seed int64) *Graph {
	if m <= 0 {
		m = 2
	}
	if n < m+2 {
		panic("topology: preferential-attachment needs at least m+2 nodes")
	}
	g := New(fmt.Sprintf("pa-%d", n), n)
	rng := rand.New(rand.NewSource(seed))
	// ends holds one entry per edge endpoint, so sampling uniformly from
	// it is sampling nodes proportionally to degree.
	ends := make([]NodeID, 0, 2*(m*(m+1)/2+(n-m-1)*m))
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.MustAddEdge(NodeID(i), NodeID(j))
			ends = append(ends, NodeID(i), NodeID(j))
		}
	}
	targets := make(map[NodeID]bool, m)
	for v := m + 1; v < n; v++ {
		for k := range targets {
			delete(targets, k)
		}
		for len(targets) < m {
			targets[ends[rng.Intn(len(ends))]] = true
		}
		for _, t := range sortedNodes(targets) {
			g.MustAddEdge(NodeID(v), t)
			ends = append(ends, NodeID(v), t)
		}
	}
	return g
}

func sortedNodes(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	// Insertion into id order: edge insertion order must not depend on
	// map iteration order or determinism per seed is lost.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Package siena implements the comparator of the paper's evaluation: the
// Siena-style subsumption-based subscription propagation and reverse-path
// event routing (Section 2.2, Section 5.2).
//
// PropagateModel follows the paper's experimental model exactly:
// per-source BFS spanning trees with a probabilistic subsumption cut, where
// broker B's probability is maxSubsumption × degree(B) ⁄ maxDegree.
// Subsumes is the genuine subsumption check between subscriptions; the
// package's tests propagate with it too (PropagateReal).
//
// Event routing follows the reverse paths set up by subscription
// propagation: an event reaches each matched broker along the spanning
// tree path between publisher and subscriber, with shared edges traversed
// once.
package siena

import (
	"math/rand"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/topology"
)

// PropagationStats accounts one propagation run.
type PropagationStats struct {
	Hops         int   // broker-to-broker subscription messages
	Bytes        int64 // Hops × subscription size (or real sizes)
	StorageBytes int64 // subscriptions held across all brokers
	Stored       []int // per broker: subscriptions held (own + received)
}

// PropagateModel simulates Siena's subscription propagation under the
// paper's probabilistic model: every broker owns sigma subscriptions of
// subSize bytes; each is flooded over the BFS spanning tree rooted at its
// owner; at every receiving broker B the subscription stops with
// probability maxSubsumption × degree(B) ⁄ maxDegree ("the stated
// subsumption probability refers to the maximum probability among
// brokers"). Deterministic for a seed.
func PropagateModel(g *topology.Graph, sigma, subSize int, maxSubsumption float64, seed int64) PropagationStats {
	rng := rand.New(rand.NewSource(seed))
	n := g.Len()
	stats := PropagationStats{Stored: make([]int, n)}
	maxDeg := g.MaxDegree()
	prob := func(b topology.NodeID) float64 {
		if maxDeg == 0 {
			return 0
		}
		return maxSubsumption * float64(g.Degree(b)) / float64(maxDeg)
	}
	children := make([][][]topology.NodeID, n) // children[src][node] = tree children
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
	for src := 0; src < n; src++ {
		stats.Stored[src] += sigma // own subscriptions
		for s := 0; s < sigma; s++ {
			// Flood one subscription down the tree; a queue of brokers
			// that received it and will forward.
			queue := []topology.NodeID{topology.NodeID(src)}
			for len(queue) > 0 {
				b := queue[0]
				queue = queue[1:]
				// The owner always forwards; intermediate brokers stop
				// with their subsumption probability.
				if int(b) != src && rng.Float64() < prob(b) {
					continue
				}
				for _, c := range children[src][b] {
					stats.Hops++
					stats.Stored[c]++
					queue = append(queue, c)
				}
			}
		}
	}
	stats.Bytes = int64(stats.Hops) * int64(subSize)
	for _, s := range stats.Stored {
		stats.StorageBytes += int64(s) * int64(subSize)
	}
	return stats
}

// RouteEvent returns the hop count for routing one event from origin to
// every matched broker along reverse paths: the union of the spanning-tree
// paths between origin and each matched broker, shared edges counted once
// (Siena forwards the event once per link).
func RouteEvent(g *topology.Graph, origin topology.NodeID, matched []topology.NodeID) int {
	if len(matched) == 0 {
		return 0
	}
	// Reverse paths follow each subscriber's spanning tree; the tree path
	// between origin and subscriber is a shortest path. Using the BFS tree
	// rooted at the origin gives the same path lengths and lets shared
	// prefixes merge, as Siena's per-link forwarding does.
	_, parent := g.BFSFrom(origin)
	type edge struct{ a, b topology.NodeID }
	seen := make(map[edge]bool)
	hops := 0
	for _, m := range matched {
		for node := m; node != origin; {
			p := parent[node]
			if p < 0 {
				break // unreachable; ignore
			}
			e := edge{a: p, b: node}
			if !seen[e] {
				seen[e] = true
				hops++
			}
			node = p
		}
	}
	return hops
}

// Subsumes reports whether subscription a subsumes b: every event matching
// b also matches a. The check is sound (never true spuriously) and may be
// conservatively false for exotic pattern pairs. This is the relation
// Siena's propagation uses: a broker does not forward b to a neighbor it
// has already sent a subsuming a to.
func Subsumes(s *schema.Schema, a, b *schema.Subscription) bool {
	bByAttr := make(map[schema.AttrID][]schema.Constraint)
	for _, c := range b.Constraints {
		bByAttr[c.Attr] = append(bByAttr[c.Attr], c)
	}
	aByAttr := make(map[schema.AttrID][]schema.Constraint)
	for _, c := range a.Constraints {
		aByAttr[c.Attr] = append(aByAttr[c.Attr], c)
	}
	for attr, aCons := range aByAttr {
		bCons, ok := bByAttr[attr]
		if !ok {
			return false // b unconstrained on attr: some matching event violates a
		}
		if s.TypeOf(attr).Arithmetic() {
			if !arithmeticSubsumed(aCons, bCons) {
				return false
			}
		} else {
			if !stringSubsumed(aCons, bCons) {
				return false
			}
		}
	}
	return true
}

// arithmeticSubsumed reports whether b's canonical interval (minus its ≠
// points) lies within a's interval and avoids a's ≠ points.
func arithmeticSubsumed(aCons, bCons []schema.Constraint) bool {
	ivA, neA := canonicalArith(aCons)
	ivB, neB := canonicalArith(bCons)
	if ivB.Empty() {
		return true // b can never match
	}
	if !interval.Covers(ivA, ivB) {
		return false
	}
	for x := range neA {
		if !ivB.Contains(x) {
			continue
		}
		if !neB[x] {
			return false // some b-value equals x and violates a's ≠ x
		}
	}
	return true
}

func canonicalArith(cons []schema.Constraint) (interval.Interval, map[float64]bool) {
	iv := interval.Full()
	ne := make(map[float64]bool)
	for _, c := range cons {
		switch c.Op {
		case schema.OpEQ:
			iv = interval.Intersect(iv, interval.Point(c.Value.Num))
		case schema.OpNE:
			ne[c.Value.Num] = true
		case schema.OpLT:
			iv = interval.Intersect(iv, interval.Below(c.Value.Num, false))
		case schema.OpLE:
			iv = interval.Intersect(iv, interval.Below(c.Value.Num, true))
		case schema.OpGT:
			iv = interval.Intersect(iv, interval.Above(c.Value.Num, false))
		case schema.OpGE:
			iv = interval.Intersect(iv, interval.Above(c.Value.Num, true))
		}
	}
	return iv, ne
}

// stringSubsumed: every a-constraint must be implied by some b-constraint.
func stringSubsumed(aCons, bCons []schema.Constraint) bool {
	for _, ca := range aCons {
		pa := strmatch.FromConstraint(ca)
		implied := false
		for _, cb := range bCons {
			pb := strmatch.FromConstraint(cb)
			if strmatch.Covers(pa, pb) {
				implied = true
				break
			}
			// A ≠ constraint of a is implied by an equality of b with a
			// different value.
			if pa.Op == schema.OpNE && pb.Op == schema.OpEQ && pa.Text != pb.Text {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// Package routing implements Algorithm 3 of the subscription-summarization
// paper (Section 4.3): distributed event processing over multi-broker
// summaries. An event entering the system at some broker is matched
// against that broker's merged summary, delivered to the owning brokers of
// any matched subscriptions (via the c1 component of their ids), and —
// while the BROCLIe check list does not yet contain every broker —
// forwarded to the highest-degree broker not yet covered.
//
// As in the paper's hop accounting, every broker-to-broker message counts
// as one hop regardless of overlay adjacency: hops measure broker
// involvement, not link traversals.
package routing

import (
	"fmt"

	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

// MatchFunc reports which brokers own subscriptions matching the event,
// according to the merged summary held at the examining broker. For
// content-driven routing this wraps Summary.Match; for the Figure 10
// popularity experiments it intersects a predetermined matched set with
// the broker's Merged_Brokers.
type MatchFunc func(at topology.NodeID) []topology.NodeID

// Trace records the processing of one event.
type Trace struct {
	Origin       topology.NodeID
	Visited      []topology.NodeID // examination chain, starting at Origin
	Delivered    []topology.NodeID // owners the event was sent to (deduplicated)
	ForwardHops  int               // chain messages between examining brokers
	DeliveryHops int               // messages delivering the event to owners
}

// Hops returns the total broker-to-broker messages for the event.
func (t *Trace) Hops() int { return t.ForwardHops + t.DeliveryHops }

// Router routes events over the outcome of a propagation phase.
type Router struct {
	g     *topology.Graph
	prop  *propagation.Result
	order []topology.NodeID // g.NodesByDegreeDesc()
}

// NewRouter builds a router for the given overlay and propagation result.
func NewRouter(g *topology.Graph, prop *propagation.Result) (*Router, error) {
	if len(prop.MergedBrokers) != g.Len() {
		return nil, fmt.Errorf("routing: propagation result covers %d brokers, overlay has %d",
			len(prop.MergedBrokers), g.Len())
	}
	return &Router{g: g, prop: prop, order: g.NodesByDegreeDesc()}, nil
}

// NextHop returns the first broker of order not in BROCLIe — Algorithm 3's
// forwarding choice when order is the overlay's NodesByDegreeDesc.
func NextHop(order []topology.NodeID, brocli subid.Mask) (topology.NodeID, bool) {
	for _, node := range order {
		if !brocli.Has(int(node)) {
			return node, true
		}
	}
	return 0, false
}

// Route processes one event entering at origin: Algorithm 3 run to
// completion. match is consulted once per examined broker.
func (r *Router) Route(origin topology.NodeID, match MatchFunc) *Trace {
	n := r.g.Len()
	trace := &Trace{Origin: origin}
	brocli := subid.NewMask(n)
	delivered := make(map[topology.NodeID]bool, n)
	current := origin
	for steps := 0; steps < n+1; steps++ {
		trace.Visited = append(trace.Visited, current)
		// Step 1: check the local merged summary for matches.
		matchedOwners := match(current)
		// Step 2: update BROCLIe with this broker's Merged_Brokers.
		for _, b := range r.prop.MergedBrokers[current].Bits() {
			brocli.Set(b)
		}
		// Step 3: send the event to each newly matched owner.
		for _, owner := range matchedOwners {
			if delivered[owner] {
				continue
			}
			delivered[owner] = true
			trace.Delivered = append(trace.Delivered, owner)
			if owner != current {
				trace.DeliveryHops++
			}
		}
		// Step 4: if BROCLIe does not contain all brokers, forward.
		if brocli.Count() == n {
			break
		}
		next, ok := NextHop(r.order, brocli)
		if !ok {
			break
		}
		trace.ForwardHops++
		current = next
	}
	return trace
}

// PopularityMatch returns a MatchFunc for the Figure 10 experiments: the
// event's matched brokers are predetermined; a broker reports those of
// them whose subscriptions it has merged.
func (r *Router) PopularityMatch(matched []topology.NodeID) MatchFunc {
	set := subid.NewMask(r.g.Len())
	for _, m := range matched {
		set.Set(int(m))
	}
	return func(at topology.NodeID) []topology.NodeID {
		var out []topology.NodeID
		for _, b := range r.prop.MergedBrokers[at].Bits() {
			if set.Has(b) {
				out = append(out, topology.NodeID(b))
			}
		}
		return out
	}
}

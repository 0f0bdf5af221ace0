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
	order *Order
}

// NewRouter builds a router for the given overlay and propagation result.
func NewRouter(g *topology.Graph, prop *propagation.Result) (*Router, error) {
	if len(prop.MergedBrokers) != g.Len() {
		return nil, fmt.Errorf("routing: propagation result covers %d brokers, overlay has %d",
			len(prop.MergedBrokers), g.Len())
	}
	return &Router{g: g, prop: prop, order: NewOrder(g)}, nil
}

// NextHop returns the first broker of order not in BROCLIe — Algorithm 3's
// forwarding choice when order is the overlay's NodesByDegreeDesc. It
// scans order from its start; Order.NextHop is the scan a hop makes.
func NextHop(order []topology.NodeID, brocli subid.Mask) (topology.NodeID, bool) {
	for _, node := range order {
		if !brocli.Has(int(node)) {
			return node, true
		}
	}
	return 0, false
}

// Order is Algorithm 3's examination order over one overlay — its
// NodesByDegreeDesc — with each broker's rank in it.
type Order struct {
	nodes []topology.NodeID
	rank  []int32 // rank[b]: the index of broker b in nodes
}

// NewOrder returns the examination order of g.
func NewOrder(g *topology.Graph) *Order {
	o := &Order{nodes: g.NodesByDegreeDesc(), rank: make([]int32, g.Len())}
	for r, b := range o.nodes {
		o.rank[b] = int32(r)
	}
	return o
}

// Nodes returns the brokers in examination order. The slice is shared; do
// not modify it. A test hook: the routing and core tests read the order.
func (o *Order) Nodes() []topology.NodeID { return o.nodes }

// NextHop returns the forwarding choice of broker at for an event whose
// BROCLIe is brocli: the first broker of the order not in it, as NextHop
// finds it. An event that was forwarded to at (forwarded) reached it
// because the sender's scan found at first outside the BROCLIe the event
// carries, so every broker ranked before at is in that BROCLIe. BROCLIe
// only grows along a walk, so they still are, and the scan resumes at
// at's rank. An event that entered the system at at scans from the start.
func (o *Order) NextHop(at topology.NodeID, forwarded bool, brocli subid.Mask) (topology.NodeID, bool) {
	start := 0
	if forwarded {
		start = int(o.rank[at])
	}
	return NextHop(o.nodes[start:], brocli)
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
		next, ok := r.order.NextHop(current, steps > 0, brocli)
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

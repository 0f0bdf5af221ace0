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
	"math/rand"
	"sort"

	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

// Strategy selects the next broker to examine among those not in BROCLIe.
type Strategy uint8

const (
	// HighestDegree is the paper's choice: the unexamined broker with the
	// greatest degree (it has merged the most neighbor summaries, so one
	// visit covers the most brokers).
	HighestDegree Strategy = iota
	// RandomUnvisited picks uniformly among brokers not in BROCLIe — the
	// load-spreading end of the trade-off the paper mentions.
	RandomUnvisited
	// VirtualDegree is the paper's "ongoing work" load-balancing variant:
	// maximum-degree brokers advertise a reduced virtual degree so they are
	// not first on every event's path.
	VirtualDegree
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case HighestDegree:
		return "highest-degree"
	case RandomUnvisited:
		return "random-unvisited"
	case VirtualDegree:
		return "virtual-degree"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Config parametrizes the router.
type Config struct {
	Strategy Strategy
	// VirtualDegreeCap caps the degree advertised by maximum-degree
	// brokers under VirtualDegree (0 means mean degree).
	VirtualDegreeCap int
	// Seed drives RandomUnvisited.
	Seed int64
}

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
	cfg   Config
	rng   *rand.Rand
	order []topology.NodeID // Order(g, strategy, cap)
}

// NewRouter builds a router for the given overlay and propagation result.
func NewRouter(g *topology.Graph, prop *propagation.Result, cfg Config) (*Router, error) {
	if len(prop.MergedBrokers) != g.Len() {
		return nil, fmt.Errorf("routing: propagation result covers %d brokers, overlay has %d",
			len(prop.MergedBrokers), g.Len())
	}
	return &Router{
		g: g, prop: prop, cfg: cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		order: Order(g, cfg.Strategy, cfg.VirtualDegreeCap),
	}, nil
}

// Order returns the order in which Algorithm 3 examines brokers under a
// degree-driven strategy: advertised degree descending, id ascending on
// ties. It depends only on the overlay, so the deterministic Router and
// the live engine (core.New) each derive it once and share this one
// definition. HighestDegree advertises true degrees; VirtualDegree makes
// the maximum-degree brokers advertise degCap instead (<= 0 means the
// mean degree, at least 1), which drops them among the brokers of that
// degree — by id, not by their true degree.
func Order(g *topology.Graph, strategy Strategy, degCap int) []topology.NodeID {
	if strategy != VirtualDegree {
		return g.NodesByDegreeDesc()
	}
	if degCap <= 0 {
		degCap = max(1, int(g.MeanDegree()+0.5))
	}
	maxDeg := g.MaxDegree()
	advertised := func(id topology.NodeID) int {
		d := g.Degree(id)
		if d == maxDeg {
			d = min(d, degCap)
		}
		return d
	}
	order := make([]topology.NodeID, g.Len())
	for i := range order {
		order[i] = topology.NodeID(i)
	}
	// Stable over ascending ids, so ties stay in id order.
	sort.SliceStable(order, func(i, j int) bool { return advertised(order[i]) > advertised(order[j]) })
	return order
}

// NextHop returns the first broker of order not in BROCLIe — Algorithm 3's
// forwarding choice under the degree-driven strategies.
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
		next, ok := r.next(brocli)
		if !ok {
			break
		}
		trace.ForwardHops++
		current = next
	}
	return trace
}

// next picks the strategy's choice among brokers not in BROCLIe.
func (r *Router) next(brocli subid.Mask) (topology.NodeID, bool) {
	if r.cfg.Strategy == RandomUnvisited {
		var candidates []topology.NodeID
		for i := 0; i < r.g.Len(); i++ {
			if !brocli.Has(i) {
				candidates = append(candidates, topology.NodeID(i))
			}
		}
		if len(candidates) == 0 {
			return 0, false
		}
		return candidates[r.rng.Intn(len(candidates))], true
	}
	return NextHop(r.order, brocli)
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

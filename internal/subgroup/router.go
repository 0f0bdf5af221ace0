package subgroup

import (
	"fmt"
	"sort"

	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// Router routes events over a subgrouped propagation result: the
// digest-first variant of Algorithm 3. The event hops to its origin's
// subgroup leader — the rendezvous broker holding the merged subgroup
// summary — which matches and delivers for the home group, then
// consults the other subgroups' digests: a pruned subgroup is covered
// without any message, a passing subgroup costs one forward hop to its
// leader, which matches its subgroup summary and delivers. Both this
// router and the flat one over-approximate and never lose an owner, so
// end-to-end delivered sets (after owner-side verification) are
// identical; candidate sets coincide too under merge-grouping-
// independent workloads (DESIGN.md §Subgrouping). Hops shrink because
// whole subgroups leave the walk in one check.
type Router struct {
	g   *topology.Graph
	res *Result
	// matchers[gi] leases matchers following group gi's merged summary,
	// so concurrent Route calls share scratch without sharing a matcher.
	matchers []*summary.MatcherPool
	stats    routerStats
}

// NewRouter builds a digest-first router over a subgrouped propagation
// result.
func NewRouter(g *topology.Graph, res *Result) (*Router, error) {
	if res.NumBrokers != g.Len() {
		return nil, fmt.Errorf("subgroup: propagation result covers %d brokers, overlay has %d",
			res.NumBrokers, g.Len())
	}
	r := &Router{g: g, res: res, matchers: make([]*summary.MatcherPool, len(res.Merged))}
	for gi, sm := range res.Merged {
		r.matchers[gi] = summary.NewMatcherPool(sm)
	}
	r.stats.init(res.Plan.NumGroups())
	return r, nil
}

// Route processes one event entering at origin and returns the same
// trace shape as the flat router, so experiments compare the two
// directly. Hop accounting mirrors the paper's: every broker-to-broker
// message is one hop regardless of overlay adjacency.
func (r *Router) Route(origin topology.NodeID, e *schema.Event) *routing.Trace {
	plan := r.res.Plan
	gi := plan.GroupOf[origin]
	trace := &routing.Trace{Origin: origin, Visited: []topology.NodeID{origin}}
	delivered := make(map[topology.NodeID]bool, 8)

	// deliverFrom credits the matched owners at one leader. The owner
	// list is resolved by the caller so digest analytics can observe it:
	// a digest pass whose subgroup summary then names no owner at all is
	// a measured digest false positive (pass-but-no-delivery).
	deliverFrom := func(at topology.NodeID, owners []topology.NodeID) {
		for _, owner := range owners {
			if delivered[owner] {
				continue
			}
			delivered[owner] = true
			trace.Delivered = append(trace.Delivered, owner)
			if owner != at {
				trace.DeliveryHops++
			}
		}
	}

	// The merged subgroup summary and the digests live at the leader:
	// the event's first (and often only) forward hop.
	leader := plan.Leaders[gi]
	if leader != origin {
		trace.ForwardHops++
		trace.Visited = append(trace.Visited, leader)
	}
	r.stats.home(gi)
	deliverFrom(leader, r.ownersOf(gi, e))
	for gj := 0; gj < plan.NumGroups(); gj++ {
		if gj == gi {
			continue
		}
		if !r.res.Digests[gj].MayMatch(e) {
			r.stats.prune(gj)
			continue // whole subgroup pruned, zero messages
		}
		lj := plan.Leaders[gj]
		trace.ForwardHops++
		trace.Visited = append(trace.Visited, lj)
		owners := r.ownersOf(gj, e)
		r.stats.pass(gj, len(owners) == 0)
		deliverFrom(lj, owners)
	}
	return trace
}

// ownersOf matches the event against one subgroup's merged summary and
// returns the distinct owning brokers, ascending.
func (r *Router) ownersOf(group int, e *schema.Event) []topology.NodeID {
	m := r.matchers[group].Get()
	defer r.matchers[group].Put(m)
	keys := m.MatchKeys(e) // the matcher's scratch: read before Put
	if len(keys) == 0 {
		return nil
	}
	seen := make(map[topology.NodeID]bool, 8)
	out := make([]topology.NodeID, 0, 8)
	for _, key := range keys {
		broker, _ := subid.KeyParts(key)
		owner := topology.NodeID(broker)
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

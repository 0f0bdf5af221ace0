package subgroup

import (
	"sort"
	"testing"

	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// flatSetup runs flat propagation and builds the flat router.
func flatSetup(t testing.TB, g *topology.Graph, own []*summary.Summary) (*propagation.Result, *routing.Router) {
	t.Helper()
	prop, err := propagation.Run(g, own, propagation.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.NewRouter(g, prop)
	if err != nil {
		t.Fatal(err)
	}
	return prop, r
}

// flatDeliver routes one event through the flat router and returns the
// delivered set, sorted.
func flatDeliver(r *routing.Router, prop *propagation.Result, origin topology.NodeID, ev *schema.Event) []topology.NodeID {
	match := func(at topology.NodeID) []topology.NodeID {
		var out []topology.NodeID
		for _, id := range prop.Merged[at].Match(ev) {
			out = append(out, topology.NodeID(id.Broker))
		}
		return out
	}
	trace := r.Route(origin, match)
	out := append([]topology.NodeID(nil), trace.Delivered...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedDelivered(trace *routing.Trace) []topology.NodeID {
	out := append([]topology.NodeID(nil), trace.Delivered...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameNodes(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exactOwners computes ground truth straight from each broker's own
// summary: the brokers whose own rows match the event. Both routers'
// delivered sets must contain every one of them (zero lost events); with
// merge-grouping-independent workloads they equal it exactly at the
// summary level.
func exactOwners(own []*summary.Summary, ev *schema.Event) []topology.NodeID {
	var out []topology.NodeID
	for i, sm := range own {
		if len(sm.MatchKeys(ev)) > 0 {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

func containsAll(set, subset []topology.NodeID) bool {
	have := make(map[topology.NodeID]bool, len(set))
	for _, n := range set {
		have[n] = true
	}
	for _, n := range subset {
		if !have[n] {
			return false
		}
	}
	return true
}

// accepted filters a candidate delivery set down to the owners whose own
// rows actually match — the owner-side verification every summary-routed
// system performs before handing the event to subscribers. Candidate
// sets at summary granularity are merge-grouping dependent (lossy folds
// differ between flat partial merges and subgroup merges; DESIGN.md
// §Subgrouping); the accepted set is the end-to-end delivery and must be
// identical.
func accepted(candidates []topology.NodeID, own []*summary.Summary, ev *schema.Event) []topology.NodeID {
	var out []topology.NodeID
	for _, n := range candidates {
		if len(own[n].MatchKeys(ev)) > 0 {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSubgroupFlatEquivalence is the differential suite: on CW24, the
// Figure 7 tree, and a generated 128-broker transit-stub overlay, the
// digest-first subgrouped router and flat Algorithm 3 routing must
// deliver every event to exactly the same subscriber-owning brokers,
// for every event, from rotating origins. Three invariants per event:
// both candidate sets cover the exact owners (zero lost events on
// either path), and both accepted sets — candidates that survive the
// owner's own-row verification — are identical and equal to the exact
// owner set. Candidate sets themselves may differ: lossy folding is
// merge-grouping dependent, so flat partial merges and subgroup merges
// over-approximate differently (never under).
func TestSubgroupFlatEquivalence(t *testing.T) {
	ts, tsRegions := topology.TransitStubRegions(128, 77)
	cases := []struct {
		g       *topology.Graph
		regions []int
		sigma   int
		events  int
	}{
		{topology.Figure7Tree(), modRegions(13, 3), 15, 300},
		{topology.CW24(), modRegions(24, 4), 12, 300},
		{ts, tsRegions, 8, 200},
	}
	for _, tc := range cases {
		own, gens := matchableRegionSummaries(t, tc.regions, tc.sigma, 23)
		prop, flat := flatSetup(t, tc.g, own)
		_, sub := subgroupOver(t, tc.g, own)

		regionIDs := make([]int, 0, len(gens))
		for r := range gens {
			regionIDs = append(regionIDs, r)
		}
		sort.Ints(regionIDs)

		matched, spuriousFlat, spuriousSub := 0, 0, 0
		for k := 0; k < tc.events; k++ {
			gen := gens[regionIDs[k%len(regionIDs)]]
			for _, hitRate := range []float64{0.2, 0.8} {
				ev := gen.Event(hitRate)
				origin := topology.NodeID(k % tc.g.Len())
				flatCand := flatDeliver(flat, prop, origin, ev)
				subCand := sortedDelivered(sub.Route(origin, ev))
				exact := exactOwners(own, ev)
				if !containsAll(flatCand, exact) {
					t.Fatalf("%s: event %d: flat lost deliveries: exact owners %v, candidates %v",
						tc.g.Name(), k, exact, flatCand)
				}
				if !containsAll(subCand, exact) {
					t.Fatalf("%s: event %d: subgrouped lost deliveries: exact owners %v, candidates %v",
						tc.g.Name(), k, exact, subCand)
				}
				flatAcc := accepted(flatCand, own, ev)
				subAcc := accepted(subCand, own, ev)
				if !sameNodes(flatAcc, subAcc) {
					t.Fatalf("%s: event %d origin %d: subgrouped delivered %v, flat delivered %v",
						tc.g.Name(), k, origin, subAcc, flatAcc)
				}
				if !sameNodes(flatAcc, exact) {
					t.Fatalf("%s: event %d: accepted set %v != exact owners %v",
						tc.g.Name(), k, flatAcc, exact)
				}
				if len(exact) > 0 {
					matched++
				}
				spuriousFlat += len(flatCand) - len(flatAcc)
				spuriousSub += len(subCand) - len(subAcc)
			}
		}
		if matched == 0 {
			t.Fatalf("%s: no event matched any broker — equivalence vacuous", tc.g.Name())
		}
		t.Logf("%s: %d matching events; spurious candidates flat %d, subgrouped %d",
			tc.g.Name(), matched, spuriousFlat, spuriousSub)
	}
}

// TestSubgroupPrunesMessages: at transit-stub scale the digest-first
// walk must examine far fewer brokers than the flat walk — the whole
// point of subgrouping. Compared on total forward hops over an event
// batch.
func TestSubgroupPrunesMessages(t *testing.T) {
	g, regions := topology.TransitStubRegions(128, 19)
	own, gens := matchableRegionSummaries(t, regions, 8, 37)
	prop, flat := flatSetup(t, g, own)
	_, sub := subgroupOver(t, g, own)

	regionIDs := make([]int, 0, len(gens))
	for r := range gens {
		regionIDs = append(regionIDs, r)
	}
	sort.Ints(regionIDs)

	var flatForward, subForward int
	for k := 0; k < 150; k++ {
		gen := gens[regionIDs[k%len(regionIDs)]]
		ev := gen.Event(0.5)
		origin := topology.NodeID(k % g.Len())
		match := func(at topology.NodeID) []topology.NodeID {
			var out []topology.NodeID
			for _, id := range prop.Merged[at].Match(ev) {
				out = append(out, topology.NodeID(id.Broker))
			}
			return out
		}
		flatForward += flat.Route(origin, match).ForwardHops
		subForward += sub.Route(origin, ev).ForwardHops
	}
	if subForward >= flatForward {
		t.Fatalf("subgrouped forward hops %d not below flat %d", subForward, flatForward)
	}
	t.Logf("forward hops over 150 events: flat %d, subgrouped %d", flatForward, subForward)
}

// TestSubgroupStockWorkload runs the equivalence check on the unmodified
// paper workload too: matches are rare there, but the end-to-end
// delivered sets — mostly empty, occasionally not — must still agree
// event for event, and neither path may lose an exact owner.
func TestSubgroupStockWorkload(t *testing.T) {
	g := topology.CW24()
	regions := modRegions(24, 3)
	own, gens := regionSummaries(t, regions, 20, 67)
	prop, flat := flatSetup(t, g, own)
	_, sub := subgroupOver(t, g, own)
	gen := gens[0]
	for k := 0; k < 400; k++ {
		ev := gen.Event(0.9)
		origin := topology.NodeID(k % g.Len())
		flatCand := flatDeliver(flat, prop, origin, ev)
		subCand := sortedDelivered(sub.Route(origin, ev))
		exact := exactOwners(own, ev)
		if !containsAll(flatCand, exact) || !containsAll(subCand, exact) {
			t.Fatalf("event %d: lost deliveries: exact %v, flat %v, subgrouped %v",
				k, exact, flatCand, subCand)
		}
		if got, want := accepted(subCand, own, ev), accepted(flatCand, own, ev); !sameNodes(got, want) {
			t.Fatalf("event %d origin %d: subgrouped delivered %v != flat %v", k, origin, got, want)
		}
	}
}

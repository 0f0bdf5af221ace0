// Overlay-scaling experiment: flat degree-ordered propagation and
// Algorithm 3 routing versus summary-similarity subgrouping, swept over
// generated transit-stub overlays from tens to a thousand brokers. This
// is the harness behind `subsum-bench -experiment overlay`;
// TestOverlayScalingReduced pins its seeded ≤128-broker numbers exactly.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subgroup"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// OverlayConfig parametrizes the overlay-scaling sweep.
type OverlayConfig struct {
	// Sizes are the broker counts to sweep; nil means the full
	// {24, 64, 128, 256, 512, 1000} ladder.
	Sizes []int
	// Sigma is subscriptions per broker (default 40).
	Sigma int
	// Events is the number of events routed per size (default 200).
	Events int
	Seed   int64
	// Workers bounds the parallel period width (0 = all CPUs).
	Workers int
}

// DefaultOverlay returns the full-ladder sweep EXPERIMENTS.md reports.
func DefaultOverlay() OverlayConfig {
	return OverlayConfig{
		Sizes:  []int{24, 64, 128, 256, 512, 1000},
		Sigma:  40,
		Events: 200,
		Seed:   1,
	}
}

// OverlayRow is one (size, mode) measurement of the sweep.
type OverlayRow struct {
	Brokers int
	Mode    string // "flat" or "subgrouped"
	Groups  int    // subgroups (1 for flat)
	// BytesPerPeriod is the summary traffic of one propagation period:
	// full wire bytes for flat, intra-group uploads plus cross-border
	// digests for subgrouped.
	BytesPerPeriod int64
	// IntraBytes / DigestBytes split BytesPerPeriod for subgrouped mode:
	// member→leader full-summary uploads stay inside a subgroup (stub-
	// domain-local in the transit-stub model); only DigestBytes cross
	// subgroup borders. Flat has no locality — every byte is border
	// traffic — so its IntraBytes is 0 and DigestBytes equals the total.
	IntraBytes  int64
	DigestBytes int64
	// PeriodHops counts broker-to-broker messages in the period.
	PeriodHops int
	// HopsPerEvent is the mean routing cost (forward + delivery hops).
	HopsPerEvent float64
	// ForwardHopsPerEvent isolates the examination-walk messages the
	// digest pruning attacks.
	ForwardHopsPerEvent float64
	// PropagationNs is the wall time of one propagation period,
	// including (for subgrouped) signature extraction and clustering.
	PropagationNs int64
	// PeakMergedBytes is the largest per-broker merged summary: flat
	// merges grow toward whole-network size, subgroups stay region-sized.
	PeakMergedBytes int
	// Delivered and Spurious count owner-verified deliveries and pruned
	// false-positive candidates over the event batch.
	Delivered int
	Spurious  int
	// PruneRate / DigestFPRate / LeaderSkew are the subgrouped router's
	// digest analytics over the event batch (zero for flat mode): the
	// fraction of digest consultations that pruned a whole subgroup, the
	// measured pass-but-no-delivery rate (held against the Bloom design
	// point, subgroup.DesignDigestFPRate), and max/mean leader load.
	PruneRate    float64
	DigestFPRate float64
	LeaderSkew   float64
}

// overlayWorkload is the regional workload the sweep routes: short
// conjunctions over region-banded canonical values, with events carrying
// every attribute, so a measurable fraction of events actually match
// (the paper's stock 5-of-10-attribute conjunctions almost never match a
// random 5-attribute event, which would make routing costs degenerate).
func overlayWorkload(region int, seed int64) (workload.Config, error) {
	cfg := workload.DefaultConfig()
	cfg.AttrsPerSub = 2
	cfg.AttrsPerEvent = cfg.NumAttrs
	cfg.Subsumption = 1
	cfg.Region = region
	cfg.Seed = seed + int64(region)
	return cfg, cfg.Validate()
}

// overlayFixture is one generated size's shared input: the overlay, the
// per-broker summaries, the region generators, and the event batch both
// modes route.
type overlayFixture struct {
	g      *topology.Graph
	own    []*summary.Summary
	events []*schema.Event
	origin []topology.NodeID
}

func buildOverlayFixture(n int, cfg OverlayConfig) (*overlayFixture, error) {
	g, regions := topology.TransitStubRegions(n, cfg.Seed)
	gens := make(map[int]*workload.Generator)
	for _, r := range regions {
		if gens[r] != nil {
			continue
		}
		wcfg, err := overlayWorkload(r, cfg.Seed)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(wcfg)
		if err != nil {
			return nil, err
		}
		gens[r] = gen
	}
	own := make([]*summary.Summary, n)
	for i, r := range regions {
		gen := gens[r]
		sm := summary.New(gen.Schema(), interval.Lossy)
		for j := 0; j < cfg.Sigma; j++ {
			id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(j)}
			if err := sm.Insert(id, gen.Subscription()); err != nil {
				return nil, err
			}
		}
		own[i] = sm
	}
	regionIDs := make([]int, 0, len(gens))
	for r := range gens {
		regionIDs = append(regionIDs, r)
	}
	sort.Ints(regionIDs)
	fx := &overlayFixture{g: g, own: own}
	for k := 0; k < cfg.Events; k++ {
		gen := gens[regionIDs[k%len(regionIDs)]]
		hitRate := 0.3
		if k%2 == 1 {
			hitRate = 0.8
		}
		fx.events = append(fx.events, gen.Event(hitRate))
		fx.origin = append(fx.origin, topology.NodeID((k*7)%n))
	}
	return fx, nil
}

// followers returns one summary-following matcher per summary, so an
// event batch reuses each broker's match scratch instead of rebuilding it
// per event.
func followers(sms []*summary.Summary) []*summary.Matcher {
	out := make([]*summary.Matcher, len(sms))
	for i, sm := range sms {
		out[i] = sm.NewMatcher()
	}
	return out
}

// verifiedOwners filters the candidate set down to owners whose own rows
// match — the owner-side exact-match step of the paradigm. Returned
// sorted.
func verifiedOwners(candidates []topology.NodeID, own []*summary.Matcher, ev *schema.Event) []topology.NodeID {
	var out []topology.NodeID
	for _, c := range candidates {
		if len(own[c].MatchKeys(ev)) > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runOverlayFlat measures one flat period and the event batch, returning
// the row and each event's owner-verified delivery set.
func runOverlayFlat(fx *overlayFixture, cfg OverlayConfig) (OverlayRow, [][]topology.NodeID, error) {
	row := OverlayRow{Brokers: fx.g.Len(), Mode: "flat", Groups: 1}
	start := time.Now()
	prop, err := propagation.RunWorkers(fx.g, fx.own, propagation.DefaultCostModel(), cfg.Workers)
	if err != nil {
		return row, nil, err
	}
	row.PropagationNs = time.Since(start).Nanoseconds()
	row.BytesPerPeriod = prop.WireBytes
	row.DigestBytes = prop.WireBytes
	row.PeriodHops = prop.Hops
	for _, sm := range prop.Merged {
		if sz := sm.EncodedSize(); sz > row.PeakMergedBytes {
			row.PeakMergedBytes = sz
		}
	}
	r, err := routing.NewRouter(fx.g, prop)
	if err != nil {
		return row, nil, err
	}
	delivered := make([][]topology.NodeID, len(fx.events))
	merged, own := followers(prop.Merged), followers(fx.own)
	var hops, fwd int
	for k, ev := range fx.events {
		match := func(at topology.NodeID) []topology.NodeID {
			var out []topology.NodeID
			for _, key := range merged[at].MatchKeys(ev) {
				broker, _ := subid.KeyParts(key)
				out = append(out, topology.NodeID(broker))
			}
			return out
		}
		trace := r.Route(fx.origin[k], match)
		hops += trace.Hops()
		fwd += trace.ForwardHops
		delivered[k] = verifiedOwners(trace.Delivered, own, ev)
		row.Delivered += len(delivered[k])
		row.Spurious += len(trace.Delivered) - len(delivered[k])
	}
	row.HopsPerEvent = float64(hops) / float64(len(fx.events))
	row.ForwardHopsPerEvent = float64(fwd) / float64(len(fx.events))
	return row, delivered, nil
}

// runOverlaySubgrouped measures one subgrouped period (signatures +
// clustering + intra-group exchange + digest mesh) and the same event
// batch through the digest-first router.
func runOverlaySubgrouped(fx *overlayFixture, cfg OverlayConfig) (OverlayRow, [][]topology.NodeID, error) {
	row := OverlayRow{Brokers: fx.g.Len(), Mode: "subgrouped"}
	start := time.Now()
	sigs := make([]*summary.Signature, len(fx.own))
	for i, sm := range fx.own {
		sigs[i] = sm.Signature(0)
	}
	plan, err := subgroup.Cluster(fx.g, sigs, subgroup.Options{})
	if err != nil {
		return row, nil, err
	}
	res, err := subgroup.Propagate(fx.g, fx.own, plan, cfg.Workers)
	if err != nil {
		return row, nil, err
	}
	res.StampEpoch(1) // single measured period
	row.PropagationNs = time.Since(start).Nanoseconds()
	row.Groups = plan.NumGroups()
	row.BytesPerPeriod = res.WireBytes
	row.IntraBytes = res.IntraWireBytes
	row.DigestBytes = res.DigestWireBytes
	row.PeriodHops = res.Hops
	row.PeakMergedBytes = res.PeakMergedBytes
	r, err := subgroup.NewRouter(fx.g, res)
	if err != nil {
		return row, nil, err
	}
	delivered := make([][]topology.NodeID, len(fx.events))
	own := followers(fx.own)
	var hops, fwd int
	for k, ev := range fx.events {
		trace := r.Route(fx.origin[k], ev)
		hops += trace.Hops()
		fwd += trace.ForwardHops
		delivered[k] = verifiedOwners(trace.Delivered, own, ev)
		row.Delivered += len(delivered[k])
		row.Spurious += len(trace.Delivered) - len(delivered[k])
	}
	row.HopsPerEvent = float64(hops) / float64(len(fx.events))
	row.ForwardHopsPerEvent = float64(fwd) / float64(len(fx.events))
	an := r.Analytics()
	row.PruneRate = an.PruneRate
	row.DigestFPRate = an.DigestFPRate
	row.LeaderSkew = an.LeaderSkew
	return row, delivered, nil
}

// OverlayScaling runs the sweep: for each size, one flat and one
// subgrouped period plus the shared event batch, asserting per event
// that both modes deliver to exactly the same owner-verified broker set
// (a differential equivalence check, so no row is printed unverified).
func OverlayScaling(cfg OverlayConfig) ([]OverlayRow, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultOverlay().Sizes
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = DefaultOverlay().Sigma
	}
	if cfg.Events <= 0 {
		cfg.Events = DefaultOverlay().Events
	}
	var rows []OverlayRow
	for _, n := range cfg.Sizes {
		fx, err := buildOverlayFixture(n, cfg)
		if err != nil {
			return nil, fmt.Errorf("overlay n=%d: %w", n, err)
		}
		flatRow, flatDel, err := runOverlayFlat(fx, cfg)
		if err != nil {
			return nil, fmt.Errorf("overlay n=%d flat: %w", n, err)
		}
		subRow, subDel, err := runOverlaySubgrouped(fx, cfg)
		if err != nil {
			return nil, fmt.Errorf("overlay n=%d subgrouped: %w", n, err)
		}
		for k := range fx.events {
			if len(flatDel[k]) != len(subDel[k]) {
				return nil, fmt.Errorf("overlay n=%d event %d: flat delivered %v, subgrouped %v",
					n, k, flatDel[k], subDel[k])
			}
			for i := range flatDel[k] {
				if flatDel[k][i] != subDel[k][i] {
					return nil, fmt.Errorf("overlay n=%d event %d: flat delivered %v, subgrouped %v",
						n, k, flatDel[k], subDel[k])
				}
			}
		}
		rows = append(rows, flatRow, subRow)
	}
	return rows, nil
}

// OverlayTable runs OverlayScaling and tabulates one row per (size, mode).
// Propagation wall time is left out: one period per size is too short to
// time stably, and every other column is seeded-deterministic.
func OverlayTable(cfg OverlayConfig) (*metrics.Table, error) {
	rows, err := OverlayScaling(cfg)
	if err != nil {
		return nil, err
	}
	tab := metrics.NewTable(
		"Overlay scaling — flat vs subgrouped on transit-stub overlays (delivery sets verified identical per event)",
		"brokers", "mode", "groups", "bytes/period", "intra B", "cross-border B", "period hops",
		"hops/event", "fwd hops/event", "peak merged B", "delivered", "spurious")
	for _, r := range rows {
		tab.AddRow(r.Brokers, r.Mode, r.Groups, r.BytesPerPeriod, r.IntraBytes, r.DigestBytes, r.PeriodHops,
			fmt.Sprintf("%.2f", r.HopsPerEvent), fmt.Sprintf("%.2f", r.ForwardHopsPerEvent),
			r.PeakMergedBytes, r.Delivered, r.Spurious)
	}
	return tab, nil
}

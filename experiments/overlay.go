// Overlay-scaling experiment: degree-ordered Algorithm 2 propagation and
// Algorithm 3 routing, swept over generated transit-stub overlays from
// tens to a thousand brokers, with every event's delivery set checked
// against brute force. This is the harness behind
// `subsum-bench -experiment overlay`; TestOverlayScalingReduced pins its
// seeded ≤128-broker numbers exactly.
package experiments

import (
	"fmt"
	"sort"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
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

// OverlayRow is one size's measurement of the sweep.
type OverlayRow struct {
	Brokers int
	// BytesPerPeriod is the summary wire traffic of one propagation
	// period.
	BytesPerPeriod int64
	// PeriodHops counts broker-to-broker messages in the period.
	PeriodHops int
	// HopsPerEvent is the mean routing cost (forward + delivery hops).
	HopsPerEvent float64
	// ForwardHopsPerEvent isolates the examination-walk messages.
	ForwardHopsPerEvent float64
	// PeakMergedBytes is the largest per-broker merged summary; merges
	// grow toward whole-network size.
	PeakMergedBytes int
	// Delivered and Spurious count owner-verified deliveries and pruned
	// false-positive candidates over the event batch.
	Delivered int
	Spurious  int
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

// overlayFixture is one generated size's input: the overlay, the
// per-broker summaries, and the event batch with each event's origin.
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

// checkDelivered holds one event's owner-verified delivery set to the
// paper's contract: it must be exactly the brokers whose own summary
// matches the event, found by asking every broker. A broker missing from
// the delivery set is an Algorithm 2/3 false negative.
func checkDelivered(k int, delivered []topology.NodeID, own []*summary.Matcher, ev *schema.Event) error {
	got := make(map[topology.NodeID]bool, len(delivered))
	var missing, extra []topology.NodeID
	for _, b := range delivered {
		if got[b] || len(own[b].MatchKeys(ev)) == 0 {
			extra = append(extra, b)
		}
		got[b] = true
	}
	for b := range own {
		if !got[topology.NodeID(b)] && len(own[b].MatchKeys(ev)) > 0 {
			missing = append(missing, topology.NodeID(b))
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("event %d: delivered %v, missing brokers %v, extra brokers %v",
			k, delivered, missing, extra)
	}
	return nil
}

// runOverlay measures one propagation period and the event batch, and
// checks every event's delivery set against brute force.
func runOverlay(fx *overlayFixture, cfg OverlayConfig) (OverlayRow, error) {
	row := OverlayRow{Brokers: fx.g.Len()}
	prop, err := propagation.RunWorkers(fx.g, fx.own, propagation.DefaultCostModel(), cfg.Workers)
	if err != nil {
		return row, err
	}
	row.BytesPerPeriod = prop.WireBytes
	row.PeriodHops = prop.Hops
	for _, sm := range prop.Merged {
		if sz := sm.EncodedSize(); sz > row.PeakMergedBytes {
			row.PeakMergedBytes = sz
		}
	}
	r, err := routing.NewRouter(fx.g, prop)
	if err != nil {
		return row, err
	}
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
		delivered := verifiedOwners(trace.Delivered, own, ev)
		if err := checkDelivered(k, delivered, own, ev); err != nil {
			return row, err
		}
		row.Delivered += len(delivered)
		row.Spurious += len(trace.Delivered) - len(delivered)
	}
	row.HopsPerEvent = float64(hops) / float64(len(fx.events))
	row.ForwardHopsPerEvent = float64(fwd) / float64(len(fx.events))
	return row, nil
}

// OverlayScaling runs the sweep: for each size, one propagation period
// plus the event batch. An event whose delivery set differs from brute
// force fails the sweep, so no row is printed unverified.
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
		row, err := runOverlay(fx, cfg)
		if err != nil {
			return nil, fmt.Errorf("overlay n=%d: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// OverlayTable runs OverlayScaling and tabulates one row per size. Every
// column is seeded-deterministic.
func OverlayTable(cfg OverlayConfig) (*metrics.Table, error) {
	rows, err := OverlayScaling(cfg)
	if err != nil {
		return nil, err
	}
	tab := metrics.NewTable(
		"Overlay scaling — Algorithms 2 and 3 on transit-stub overlays (delivery sets verified against brute force per event)",
		"brokers", "bytes/period", "period hops", "hops/event", "fwd hops/event",
		"peak merged B", "delivered", "spurious")
	for _, r := range rows {
		tab.AddRow(r.Brokers, r.BytesPerPeriod, r.PeriodHops,
			fmt.Sprintf("%.2f", r.HopsPerEvent), fmt.Sprintf("%.2f", r.ForwardHopsPerEvent),
			r.PeakMergedBytes, r.Delivered, r.Spurious)
	}
	return tab, nil
}

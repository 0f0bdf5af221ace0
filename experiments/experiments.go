// Package experiments regenerates every table and figure of the
// subscription-summarization paper's evaluation (Section 5). Each function
// returns a metrics.Table whose rows correspond to the figure's x-axis
// points and whose columns are the figure's series. The cmd/subsum-bench
// binary prints them.
//
// Absolute values depend on the topology approximation and the synthetic
// workload (see DESIGN.md); the comparisons — who wins, by what factor,
// where the crossover falls — are the reproduction targets, and
// EXPERIMENTS.md records paper-versus-measured for each.
package experiments

import (
	"fmt"
	"time"

	"github.com/subsum/subsum/internal/broadcast"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/par"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/siena"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// Config collects the evaluation parameters (defaults are Table 2).
type Config struct {
	Topo            *topology.Graph
	Sigmas          []int     // σ sweep (Figures 8 and 11 x-axis)
	Subsumptions    []float64 // subsumption sweep (Figure 9 x-axis)
	LowSubsumption  float64   // the "10%" series of Figures 8 and 11
	HighSubsumption float64   // the "90%" series of Figures 8 and 11
	Popularities    []float64 // popularity sweep (Figure 10 x-axis)
	EventsPerBroker int       // Figure 10: events published per broker
	SubSize         int       // average subscription/event size (bytes)
	SST, SID        int       // s_st and s_id of the cost equations
	Seed            int64
	Workload        workload.Config
	// Workers bounds the parallel sweep width used when regenerating
	// figures: 0 means one worker per CPU, 1 runs serially. Results are
	// identical at any width — each sweep point draws from its own seeded
	// generator (or from pre-drawn random state) and fills its own slot.
	Workers int
}

// Default returns the paper's Table 2 configuration on the CW24 backbone.
func Default() Config {
	return Config{
		Topo:            topology.CW24(),
		Sigmas:          []int{10, 50, 100, 250, 500, 750, 1000},
		Subsumptions:    []float64{0.10, 0.25, 0.50, 0.75, 0.90},
		LowSubsumption:  0.10,
		HighSubsumption: 0.90,
		Popularities:    []float64{0.10, 0.25, 0.50, 0.75, 0.90, 1.00},
		EventsPerBroker: 1000,
		SubSize:         50,
		SST:             4,
		SID:             4,
		Seed:            1,
		Workload:        workload.DefaultConfig(),
	}
}

// cost returns the propagation cost model.
func (c Config) cost() propagation.CostModel {
	return propagation.CostModel{SST: c.SST, SID: c.SID}
}

// buildSummaries generates σ subscriptions per broker at the given
// subsumption probability and returns the per-broker delta summaries.
func buildSummaries(cfg Config, sigma int, p float64, seedOffset int64) ([]*summary.Summary, error) {
	wcfg := cfg.Workload
	wcfg.Subsumption = p
	wcfg.Seed = cfg.Seed + seedOffset
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Topo.Len()
	out := make([]*summary.Summary, n)
	for i := 0; i < n; i++ {
		out[i] = summary.New(gen.Schema(), interval.Lossy)
		for j := 0; j < sigma; j++ {
			id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(j)}
			if err := out[i].Insert(id, gen.Subscription()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Fig8 regenerates Figure 8: total network bandwidth (bytes) for one
// subscription-propagation period, versus σ (new subscriptions per broker
// per period). Series: broadcast baseline, Siena at the low and high
// subsumption probabilities, and subscription summaries at the same
// probabilities.
func Fig8(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Figure 8 — bandwidth for subscription propagation (bytes, per period)",
		"sigma", "broadcast", "siena-10%", "summary-10%", "siena-90%", "summary-90%")
	rows := make([][]any, len(cfg.Sigmas))
	err := par.SweepErr(len(cfg.Sigmas), cfg.Workers, func(i int) error {
		sigma := cfg.Sigmas[i]
		bc := broadcast.Propagate(cfg.Topo, sigma, cfg.SubSize)
		sienaLow := siena.PropagateModel(cfg.Topo, sigma, cfg.SubSize, cfg.LowSubsumption, cfg.Seed)
		sienaHigh := siena.PropagateModel(cfg.Topo, sigma, cfg.SubSize, cfg.HighSubsumption, cfg.Seed)
		sumLow, err := summaryBandwidth(cfg, sigma, cfg.LowSubsumption)
		if err != nil {
			return err
		}
		sumHigh, err := summaryBandwidth(cfg, sigma, cfg.HighSubsumption)
		if err != nil {
			return err
		}
		rows[i] = []any{sigma, bc.Bytes, sienaLow.Bytes, sumLow, sienaHigh.Bytes, sumHigh}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		tab.AddRow(r...)
	}
	return tab, nil
}

func summaryBandwidth(cfg Config, sigma int, p float64) (int64, error) {
	own, err := buildSummaries(cfg, sigma, p, int64(sigma*1000)+int64(p*100))
	if err != nil {
		return 0, err
	}
	res, err := propagation.Run(cfg.Topo, own, cfg.cost())
	if err != nil {
		return 0, err
	}
	return res.ModelBytes, nil
}

// Fig9 regenerates Figure 9: mean hops for one subscription-propagation
// period (each broker propagates one batch), versus the maximum
// subsumption probability. The summary approach is independent of the
// subsumption probability — its flat line is the point of the figure.
func Fig9(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Figure 9 — mean hops for subscription propagation",
		"subsumption%", "siena", "summary")
	// Our hops do not depend on subsumption: one propagation run.
	own, err := buildSummaries(cfg, 10, 0.5, 9)
	if err != nil {
		return nil, err
	}
	res, err := propagation.Run(cfg.Topo, own, cfg.cost())
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(cfg.Subsumptions))
	par.Sweep(len(cfg.Subsumptions), cfg.Workers, func(i int) {
		// Mean over per-subscription floods: sigma=1 per broker, several
		// seeds.
		const trials = 20
		total := 0
		for trial := 0; trial < trials; trial++ {
			st := siena.PropagateModel(cfg.Topo, 1, cfg.SubSize, cfg.Subsumptions[i], cfg.Seed+int64(trial))
			total += st.Hops
		}
		means[i] = float64(total) / trials
	})
	for i, p := range cfg.Subsumptions {
		tab.AddRow(fmt.Sprintf("%.0f", p*100), means[i], float64(res.Hops))
	}
	return tab, nil
}

// Fig10 regenerates Figure 10: mean hops to route an event to all matched
// brokers, versus event popularity (the fraction of brokers matching the
// event, chosen randomly per event). EventsPerBroker events are published
// at every broker (24 000 total in the paper's setup).
func Fig10(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Figure 10 — mean hop counts in event propagation",
		"popularity%", "summary", "siena")
	own, err := buildSummaries(cfg, 10, 0.5, 10)
	if err != nil {
		return nil, err
	}
	prop, err := propagation.Run(cfg.Topo, own, cfg.cost())
	if err != nil {
		return nil, err
	}
	router, err := routing.NewRouter(cfg.Topo, prop)
	if err != nil {
		return nil, err
	}
	wcfg := cfg.Workload
	wcfg.Seed = cfg.Seed + 77
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Topo.Len()
	for _, pop := range cfg.Popularities {
		// Pre-draw each event's matched-broker set serially, in the same
		// origin-major order as the original loop, so the generator's
		// random sequence — and therefore the figure — is identical at any
		// worker count. Routing is read-only and sweeps the events in
		// parallel.
		events := n * cfg.EventsPerBroker
		matchedSets := make([][]topology.NodeID, events)
		for i := range matchedSets {
			matchedInts := gen.MatchedBrokers(pop, n)
			matched := make([]topology.NodeID, len(matchedInts))
			for j, m := range matchedInts {
				matched[j] = topology.NodeID(m)
			}
			matchedSets[i] = matched
		}
		ourHops := make([]int64, events)
		sienaHops := make([]int64, events)
		par.Sweep(events, cfg.Workers, func(i int) {
			origin := topology.NodeID(i / cfg.EventsPerBroker)
			matched := matchedSets[i]
			trace := router.Route(origin, router.PopularityMatch(matched))
			ourHops[i] = int64(trace.Hops())
			sienaHops[i] = int64(siena.RouteEvent(cfg.Topo, origin, matched))
		})
		var oursTotal, sienaTotal int64
		for i := 0; i < events; i++ {
			oursTotal += ourHops[i]
			sienaTotal += sienaHops[i]
		}
		tab.AddRow(fmt.Sprintf("%.0f", pop*100),
			float64(oursTotal)/float64(events), float64(sienaTotal)/float64(events))
	}
	return tab, nil
}

// Fig11 regenerates Figure 11: total storage across all brokers, versus
// the number of outstanding subscriptions per broker. Series as Figure 8.
func Fig11(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Figure 11 — storage requirements for subscriptions (bytes, all brokers)",
		"subs/broker", "broadcast", "siena-10%", "summary-10%", "siena-90%", "summary-90%")
	rows := make([][]any, len(cfg.Sigmas))
	err := par.SweepErr(len(cfg.Sigmas), cfg.Workers, func(i int) error {
		s := cfg.Sigmas[i]
		bc := broadcast.Propagate(cfg.Topo, s, cfg.SubSize)
		sienaLow := siena.PropagateModel(cfg.Topo, s, cfg.SubSize, cfg.LowSubsumption, cfg.Seed)
		sienaHigh := siena.PropagateModel(cfg.Topo, s, cfg.SubSize, cfg.HighSubsumption, cfg.Seed)
		sumLow, err := summaryStorage(cfg, s, cfg.LowSubsumption)
		if err != nil {
			return err
		}
		sumHigh, err := summaryStorage(cfg, s, cfg.HighSubsumption)
		if err != nil {
			return err
		}
		rows[i] = []any{s, bc.StorageBytes, sienaLow.StorageBytes, sumLow, sienaHigh.StorageBytes, sumHigh}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		tab.AddRow(r...)
	}
	return tab, nil
}

func summaryStorage(cfg Config, subs int, p float64) (int64, error) {
	own, err := buildSummaries(cfg, subs, p, int64(subs*7)+int64(p*10))
	if err != nil {
		return 0, err
	}
	res, err := propagation.Run(cfg.Topo, own, cfg.cost())
	if err != nil {
		return 0, err
	}
	var total int64
	for _, m := range res.Merged {
		total += int64(m.SizeBytes(cfg.SST, cfg.SID))
	}
	return total, nil
}

// MatchingCost regenerates the Section 5.2.4 analysis: wall-clock cost of
// Algorithm 1 as the number of summarized subscriptions N grows,
// demonstrating the O(N) bound. Events use a 50% hit rate.
func MatchingCost(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Section 5.2.4 — matching cost of Algorithm 1 (mean per event)",
		"subscriptions", "ns/event", "collected/event (T1)", "P/event (T2)", "matched/event", "ns/(event·sub)")
	wcfg := cfg.Workload
	wcfg.Seed = cfg.Seed + 55
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		return nil, err
	}
	sm := summary.New(gen.Schema(), interval.Lossy)
	const probes, probeBlock = 2000, 100
	events := make([]*schema.Event, probes)
	for i := range events {
		events[i] = gen.Event(0.5)
	}
	next := 0
	for _, n := range []int{1000, 2000, 4000, 8000, 16000} {
		for ; next < n; next++ {
			id := subid.ID{Broker: subid.BrokerID(next % 1024), Local: subid.LocalID(next / 1024)}
			if err := sm.Insert(id, gen.Subscription()); err != nil {
				return nil, err
			}
		}
		// The probe events are swept in blocks across all workers, each
		// block through its own matcher over one view; the per-event counts
		// are slot-indexed, so the aggregates are identical at any worker
		// count.
		perMatched := make([]int64, probes)
		perCollected := make([]int64, probes)
		perUnique := make([]int64, probes)
		start := time.Now()
		view := sm.Compile()
		par.Sweep(probes/probeBlock, cfg.Workers, func(b int) {
			m := view.NewMatcher()
			for i := b * probeBlock; i < (b+1)*probeBlock; i++ {
				keys, cost := m.MatchKeysWithCost(events[i])
				perMatched[i] = int64(len(keys))
				perCollected[i] = int64(cost.CollectedIDs)
				perUnique[i] = int64(cost.UniqueIDs)
			}
		})
		elapsed := time.Since(start)
		var matched, collected, unique int64
		for i := 0; i < probes; i++ {
			matched += perMatched[i]
			collected += perCollected[i]
			unique += perUnique[i]
		}
		perEvent := float64(elapsed.Nanoseconds()) / probes
		tab.AddRow(n, perEvent,
			float64(collected)/probes, float64(unique)/probes,
			float64(matched)/probes, perEvent/float64(n))
	}
	return tab, nil
}

// Fig7Trace renders the paper's worked example: the Figure 7 propagation
// walkthrough followed by the Example 3 routing of an event matching
// brokers 4, 8, and 13, published at broker 1.
func Fig7Trace() (string, error) {
	g := topology.Figure7Tree()
	s := schema.MustNew(schema.Attribute{Name: "x", Type: schema.TypeFloat})
	own := make([]*summary.Summary, g.Len())
	for i := range own {
		own[i] = summary.New(s, interval.Lossy)
		sub, err := schema.NewSubscription(s, schema.Constraint{
			Attr: 0, Op: schema.OpEQ, Value: schema.FloatValue(float64(i)),
		})
		if err != nil {
			return "", err
		}
		if err := own[i].Insert(subid.ID{Broker: subid.BrokerID(i)}, sub); err != nil {
			return "", err
		}
	}
	res, err := propagation.Run(g, own, propagation.DefaultCostModel())
	if err != nil {
		return "", err
	}
	out := "Propagation phase (Algorithm 2) on the Figure 7 tree:\n" + res.FormatTrace()
	router, err := routing.NewRouter(g, res)
	if err != nil {
		return "", err
	}
	matched := []topology.NodeID{3, 7, 12} // paper brokers 4, 8, 13
	trace := router.Route(0, router.PopularityMatch(matched))
	out += "\nEvent routing (Algorithm 3), event at broker 1 matching brokers 4, 8, 13:\n"
	for i, v := range trace.Visited {
		out += fmt.Sprintf("  step %d: examine broker %d\n", i, int(v)+1)
	}
	for _, d := range trace.Delivered {
		out += fmt.Sprintf("  deliver to broker %d\n", int(d)+1)
	}
	out += fmt.Sprintf("  forward hops %d, delivery hops %d, total %d\n",
		trace.ForwardHops, trace.DeliveryHops, trace.Hops())
	return out, nil
}

// Table1 prints the parameter definitions (the paper's Table 1), mapping
// each symbol to the code that measures or implements it.
func Table1() *metrics.Table {
	tab := metrics.NewTable("Table 1 — parameter definitions", "symbol", "meaning", "where in code")
	tab.AddRow("n_t", "total attribute names in the event/subscription type", "schema.Schema.Len")
	tab.AddRow("S", "average outstanding subscriptions per broker", "broker.Broker.NumSubscriptions")
	tab.AddRow("sigma", "new per-broker subscriptions per period", "experiments.Config.Sigmas")
	tab.AddRow("n_as", "different arithmetic attributes per subscription", "workload arithmetic split")
	tab.AddRow("n_sr", "rows in AACSSR per arithmetic attribute", "interval.Stats.NumRanges")
	tab.AddRow("n_e", "rows in AACSE per arithmetic attribute", "interval.Stats.NumEq")
	tab.AddRow("L_a", "subscription-id list size per arithmetic attribute", "interval.Stats.IDEntries")
	tab.AddRow("n_ss", "different string attributes per subscription", "workload string split")
	tab.AddRow("n_r", "rows in SACS per string attribute", "strmatch.Stats.NumRows")
	tab.AddRow("L_s", "subscription-id list size per string attribute", "strmatch.Stats.IDEntries")
	tab.AddRow("s_sv", "average string value size (bytes)", "workload.Config.StringLen")
	tab.AddRow("s_st", "storage size of an arithmetic value", "propagation.CostModel.SST")
	tab.AddRow("s_id", "storage size of a subscription id", "propagation.CostModel.SID")
	tab.AddRow("E", "average incoming events at a broker", "experiments.Config.EventsPerBroker")
	tab.AddRow("n_ae", "different arithmetic attributes per event", "workload event split")
	tab.AddRow("n_se", "different string attributes per event", "workload event split")
	return tab
}

// Table2 prints the parameter values in use (the paper's Table 2).
func Table2(cfg Config) *metrics.Table {
	tab := metrics.NewTable("Table 2 — parameter values", "symbol", "value", "meaning")
	tab.AddRow("brokers", cfg.Topo.Len(), cfg.Topo.Name()+" overlay")
	tab.AddRow("n_t", cfg.Workload.NumAttrs, "attributes in the schema")
	tab.AddRow("arith%", fmt.Sprintf("%.0f", cfg.Workload.ArithFraction*100), "arithmetic attribute share")
	tab.AddRow("attrs/sub", cfg.Workload.AttrsPerSub, "constrained attributes per subscription")
	tab.AddRow("n_sr", cfg.Workload.NumRanges, "canonical sub-ranges per arithmetic attribute")
	tab.AddRow("s_sv", cfg.Workload.StringLen, "string value size (bytes)")
	tab.AddRow("s_st,s_id", fmt.Sprintf("%d,%d", cfg.SST, cfg.SID), "arithmetic value / id sizes (bytes)")
	tab.AddRow("sub size", cfg.SubSize, "average subscription/event size (bytes)")
	tab.AddRow("sigma", fmt.Sprintf("%v", cfg.Sigmas), "new subscriptions per broker per period")
	tab.AddRow("subsumption", fmt.Sprintf("%v", cfg.Subsumptions), "max subsumption probabilities")
	tab.AddRow("popularity", fmt.Sprintf("%v", cfg.Popularities), "event popularity sweep")
	tab.AddRow("events", cfg.EventsPerBroker*cfg.Topo.Len(), "events routed in Figure 10")
	return tab
}

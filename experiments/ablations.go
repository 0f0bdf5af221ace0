package experiments

import (
	"math/rand"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/siena"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// AblationForwarding compares the Algorithm 3 forwarding strategies of
// Section 4.3's trade-off discussion: the paper's highest-degree choice,
// uniform random, and the "ongoing work" virtual-degree load balancing.
// For each strategy it reports mean hops per event and the load share of
// the single most-visited broker (the load-balancing target).
func AblationForwarding(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Ablation — Algorithm 3 forwarding strategy (popularity 25%)",
		"strategy", "mean hops", "max broker load share%")
	own, err := buildSummaries(cfg, 10, 0.5, 21)
	if err != nil {
		return nil, err
	}
	prop, err := propagation.Run(cfg.Topo, own, cfg.cost())
	if err != nil {
		return nil, err
	}
	n := cfg.Topo.Len()
	for _, strat := range []routing.Strategy{routing.HighestDegree, routing.RandomUnvisited, routing.VirtualDegree} {
		router, err := routing.NewRouter(cfg.Topo, prop, routing.Config{Strategy: strat, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		wcfg := cfg.Workload
		wcfg.Seed = cfg.Seed + 31
		gen, err := workload.NewGenerator(wcfg)
		if err != nil {
			return nil, err
		}
		visits := make([]int64, n)
		var hops, events int64
		for origin := 0; origin < n; origin++ {
			for e := 0; e < cfg.EventsPerBroker/10; e++ {
				matchedInts := gen.MatchedBrokers(0.25, n)
				matched := make([]topology.NodeID, len(matchedInts))
				for i, m := range matchedInts {
					matched[i] = topology.NodeID(m)
				}
				trace := router.Route(topology.NodeID(origin), router.PopularityMatch(matched))
				hops += int64(trace.Hops())
				for _, v := range trace.Visited {
					visits[v]++
				}
				events++
			}
		}
		var total, max int64
		for _, v := range visits {
			total += v
			if v > max {
				max = v
			}
		}
		tab.AddRow(strat.String(),
			float64(hops)/float64(events),
			100*float64(max)/float64(total))
	}
	return tab, nil
}

// AblationEqualityFolding compares the paper's lossy AACS equality folding
// against the exact splitting mode on a workload where equality values
// deliberately fall inside subscribed ranges (the Table 2 workload keeps
// them outside, so folding never triggers there). It reports summary size
// under the cost model and the pre-filter false-positive rate.
func AblationEqualityFolding(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Ablation — AACS equality handling (range+point workload, 500 subs, 2000 events)",
		"mode", "model bytes", "range rows", "false positives/event", "matches/event")
	s := schema.MustNew(schema.Attribute{Name: "v", Type: schema.TypeFloat})
	for _, mode := range []interval.Mode{interval.Lossy, interval.Exact} {
		name := map[interval.Mode]string{interval.Lossy: "lossy (paper)", interval.Exact: "exact"}[mode]
		rng := rand.New(rand.NewSource(cfg.Seed + 41))
		sm := summary.New(s, mode)
		type entry struct {
			key uint64
			sub *schema.Subscription
		}
		var subs []entry
		for i := 0; i < 500; i++ {
			var cs []schema.Constraint
			if i%2 == 0 {
				// A range over [0,100): one of ten canonical bands.
				lo := float64(rng.Intn(10) * 10)
				cs = []schema.Constraint{
					{Attr: 0, Op: schema.OpGE, Value: schema.FloatValue(lo)},
					{Attr: 0, Op: schema.OpLE, Value: schema.FloatValue(lo + 10)},
				}
			} else {
				// An equality value inside the banded region.
				cs = []schema.Constraint{
					{Attr: 0, Op: schema.OpEQ, Value: schema.FloatValue(float64(rng.Intn(100)))},
				}
			}
			sub, err := schema.NewSubscription(s, cs...)
			if err != nil {
				return nil, err
			}
			id := subid.ID{Broker: 1, Local: subid.LocalID(i)}
			if err := sm.Insert(id, sub); err != nil {
				return nil, err
			}
			subs = append(subs, entry{key: id.Key(), sub: sub})
		}
		var fp, matches, events int64
		m := sm.NewMatcher()
		for e := 0; e < 2000; e++ {
			ev, err := schema.NewEvent(s, map[string]schema.Value{
				"v": schema.FloatValue(float64(rng.Intn(1200)) / 10),
			})
			if err != nil {
				return nil, err
			}
			got := m.MatchKeys(ev)
			truth := make(map[uint64]bool)
			for _, sb := range subs {
				if sb.sub.Matches(ev) {
					truth[sb.key] = true
				}
			}
			for _, k := range got {
				if !truth[k] {
					fp++
				}
			}
			matches += int64(len(truth))
			events++
		}
		st := sm.Stats()
		tab.AddRow(name, sm.SizeBytes(cfg.SST, cfg.SID), st.Arithmetic.NumRanges,
			float64(fp)/float64(events), float64(matches)/float64(events))
	}
	return tab, nil
}

// AblationSubsumptionCombo measures the paper's Section 6 "combining
// summarization and subsumption": per broker, subscriptions subsumed by an
// already-batched subscription are dropped from the propagation delta
// (delivery is unchanged — events matching a dropped subscription match
// its subsumer and reach the same owner). Reported per whole-subscription
// subsumption probability: summary bandwidth without and with the filter,
// and the share of subscriptions filtered.
func AblationSubsumptionCombo(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Ablation — summarization+subsumption combination (σ=100)",
		"anchored%", "plain bytes", "filtered bytes", "saved%", "subs filtered%")
	const sigma = 100
	n := cfg.Topo.Len()
	for _, p := range []float64{0.25, 0.50, 0.75, 0.95} {
		wcfg := cfg.Workload
		wcfg.Seed = cfg.Seed + 61
		gen, err := workload.NewGenerator(wcfg)
		if err != nil {
			return nil, err
		}
		// Generate the per-broker batches once so both variants see the
		// identical workload.
		batches := make([][]*schema.Subscription, n)
		for i := range batches {
			batches[i] = make([]*schema.Subscription, sigma)
			for j := range batches[i] {
				batches[i][j] = gen.AnchoredSubscription(p)
			}
		}
		build := func(filter bool) (int64, int, error) {
			own := make([]*summary.Summary, n)
			filtered := 0
			for i := range own {
				own[i] = summary.New(gen.Schema(), interval.Lossy)
				var f *siena.SubsumptionFilter
				if filter {
					f = siena.NewSubsumptionFilter(gen.Schema(), 0)
				}
				for j, sub := range batches[i] {
					if f != nil && f.Subsumed(sub) {
						filtered++
						continue
					}
					id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(j)}
					if err := own[i].Insert(id, sub); err != nil {
						return 0, 0, err
					}
					if f != nil {
						f.Add(sub)
					}
				}
			}
			res, err := propagation.Run(cfg.Topo, own, cfg.cost())
			if err != nil {
				return 0, 0, err
			}
			return res.ModelBytes, filtered, nil
		}
		plain, _, err := build(false)
		if err != nil {
			return nil, err
		}
		withFilter, filtered, err := build(true)
		if err != nil {
			return nil, err
		}
		tab.AddRow(
			int(p*100),
			plain,
			withFilter,
			100*(1-float64(withFilter)/float64(plain)),
			100*float64(filtered)/float64(n*sigma),
		)
	}
	return tab, nil
}

// AblationBatch quantifies the batching trade-off noted in Section 5.2.1:
// small σ means low latency before summaries are sent but worse bandwidth
// amortization. It reports the summary bandwidth per propagated
// subscription as σ grows.
func AblationBatch(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Ablation — batching σ (summary bandwidth per subscription)",
		"sigma", "total bytes", "bytes/subscription")
	n := cfg.Topo.Len()
	for _, sigma := range cfg.Sigmas {
		bytes, err := summaryBandwidth(cfg, sigma, 0.5)
		if err != nil {
			return nil, err
		}
		perSub := float64(bytes) / float64(sigma*n)
		tab.AddRow(sigma, bytes, perSub)
	}
	return tab, nil
}

package experiments

import (
	"slices"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/siena"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/workload"
)

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
				var batched []*schema.Subscription // this broker's delta so far
				for j, sub := range batches[i] {
					if filter && slices.ContainsFunc(batched, func(prior *schema.Subscription) bool {
						return siena.Subsumes(gen.Schema(), prior, sub)
					}) {
						filtered++
						continue
					}
					id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(j)}
					if err := own[i].Insert(id, sub); err != nil {
						return 0, 0, err
					}
					batched = append(batched, sub)
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

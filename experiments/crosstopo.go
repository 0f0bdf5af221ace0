package experiments

import (
	"github.com/subsum/subsum/internal/broadcast"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/siena"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// CrossTopology validates the paper's claim that "the results ... are
// similar in all cases" across overlay topologies: for each overlay it
// reports the σ=100 propagation bandwidth of all three approaches, the
// summary-versus-Siena factor, propagation hop counts, and mean event
// routing hops at 25% popularity. The summary approach must win bandwidth
// on every topology and keep propagation hops at or below the broker
// count.
func CrossTopology(cfg Config) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"Cross-topology — σ=100, subsumption 50%, popularity 25%",
		"topology", "brokers", "broadcast B", "siena B", "summary B",
		"siena/summary", "prop hops", "event hops ours", "event hops siena")
	topos := []*topology.Graph{
		topology.CW24(),
		topology.ATT33(),
		topology.Figure7Tree(),
		topology.Waxman(28, 0.4, 0.15, cfg.Seed),
		topology.Random(20, 8, cfg.Seed),
	}
	const sigma = 100
	for _, g := range topos {
		n := g.Len()
		local := cfg
		local.Topo = g
		own, err := buildSummaries(local, sigma, 0.5, 83)
		if err != nil {
			return nil, err
		}
		prop, err := propagation.Run(g, own, cfg.cost())
		if err != nil {
			return nil, err
		}
		bc := broadcast.Propagate(g, sigma, cfg.SubSize)
		sn := siena.PropagateModel(g, sigma, cfg.SubSize, 0.5, cfg.Seed)

		router, err := routing.NewRouter(g, prop)
		if err != nil {
			return nil, err
		}
		wcfg := cfg.Workload
		wcfg.Seed = cfg.Seed + 91
		gen, err := workload.NewGenerator(wcfg)
		if err != nil {
			return nil, err
		}
		var oursHops, sienaHops, events int64
		for origin := 0; origin < n; origin++ {
			for e := 0; e < 50; e++ {
				matchedInts := gen.MatchedBrokers(0.25, n)
				matched := make([]topology.NodeID, len(matchedInts))
				for i, m := range matchedInts {
					matched[i] = topology.NodeID(m)
				}
				trace := router.Route(topology.NodeID(origin), router.PopularityMatch(matched))
				oursHops += int64(trace.Hops())
				sienaHops += int64(siena.RouteEvent(g, topology.NodeID(origin), matched))
				events++
			}
		}
		tab.AddRow(
			g.Name(), n,
			bc.Bytes, sn.Bytes, prop.ModelBytes,
			float64(sn.Bytes)/float64(prop.ModelBytes),
			prop.Hops,
			float64(oursHops)/float64(events),
			float64(sienaHops)/float64(events),
		)
	}
	return tab, nil
}

// Package broadcast implements the paper's baseline: every broker
// broadcasts each of its raw subscriptions to every other broker
// (Section 5.2.1). The cost model is the paper's own:
//
//	bandwidth = (brokers − 1) × avg hops × brokers × σ × avg sub size
//
// where "avg hops" is the mean shortest-path hop count between broker
// pairs (subscriptions travel the overlay hop by hop to each destination).
// Storage: every broker stores every subscription in the system.
package broadcast

import "github.com/subsum/subsum/internal/topology"

// Stats accounts one broadcast propagation period.
type Stats struct {
	Hops         int64 // broker-to-broker messages (overlay hops)
	Bytes        int64
	StorageBytes int64
}

// Propagate returns the baseline's modelled cost for one period in which
// each of the n brokers sends sigma new subscriptions of subSize bytes to
// all others.
func Propagate(g *topology.Graph, sigma, subSize int) Stats {
	n := int64(g.Len())
	sub := int64(subSize)
	sig := int64(sigma)
	meanHops := g.MeanPairHops()
	hops := float64((n-1)*n*sig) * meanHops
	return Stats{
		Hops:         int64(hops + 0.5),
		Bytes:        int64(hops*float64(sub) + 0.5),
		StorageBytes: n * n * sig * sub,
	}
}

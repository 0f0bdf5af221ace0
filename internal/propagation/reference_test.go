package propagation

import (
	"fmt"

	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// runReference is the encode-per-send Algorithm 2, the oracle the
// differential tests hold Run and RunWorkers to. It shares only pickTarget
// and the summary codec with them: it runs serially, encodes the sender's
// merged summary afresh for every send, and folds each payload in once the
// iteration's sends are taken — no pooled buffers, no shared payloads, no
// copy-on-receive. Both must produce identical merged state and identical
// send logs.
func runReference(g *topology.Graph, own []*summary.Summary, cost CostModel) (*Result, error) {
	n := g.Len()
	if len(own) != n {
		return nil, fmt.Errorf("propagation: %d summaries for %d brokers", len(own), n)
	}
	res := &Result{
		Merged:        make([]*summary.Summary, n),
		MergedBrokers: make([]BrokerSet, n),
	}
	for i := 0; i < n; i++ {
		if own[i] == nil {
			return nil, fmt.Errorf("propagation: nil summary for broker %d", i)
		}
		res.Merged[i] = own[i].Clone()
		res.MergedBrokers[i] = subid.NewMask(n)
		res.MergedBrokers[i].Set(i)
	}
	communicated := make([]map[topology.NodeID]bool, n)
	for i := range communicated {
		communicated[i] = make(map[topology.NodeID]bool)
	}

	type delivery struct {
		to      topology.NodeID
		payload []byte
		brokers BrokerSet
	}

	maxDegree := g.MaxDegree()
	for iter := 1; iter <= maxDegree; iter++ {
		var deliveries []delivery
		for node := 0; node < n; node++ {
			id := topology.NodeID(node)
			if g.Degree(id) != iter {
				continue
			}
			target, ok := pickTarget(g, id, iter, communicated[node])
			if !ok {
				continue
			}
			payload := res.Merged[node].Encode(nil)
			brokers := res.MergedBrokers[node].Clone()
			communicated[node][target] = true
			communicated[target][id] = true
			send := Send{
				Iteration:  iter,
				From:       id,
				To:         target,
				Brokers:    brokers.Bits(),
				ModelBytes: res.Merged[node].SizeBytes(cost.SST, cost.SID),
				WireBytes:  len(payload),
			}
			res.Sends = append(res.Sends, send)
			res.ModelBytes += int64(send.ModelBytes)
			res.WireBytes += int64(send.WireBytes)
			deliveries = append(deliveries, delivery{to: target, payload: payload, brokers: brokers})
		}
		for _, d := range deliveries {
			if err := res.Merged[d.to].MergeEncoded(d.payload); err != nil {
				return nil, fmt.Errorf("propagation: merging at broker %d: %w", d.to, err)
			}
			for _, b := range d.brokers.Bits() {
				res.MergedBrokers[d.to].Set(b)
			}
		}
	}
	res.Hops = len(res.Sends)
	return res, nil
}

// Package propagation implements Algorithm 2 of the
// subscription-summarization paper (Section 4.2): the degree-ordered,
// iterative propagation of multi-broker subscription summaries across the
// broker overlay.
//
// The protocol runs MAX_DEGREE iterations. In iteration i, every broker of
// degree i (1) merges its own summary with every summary received in
// previous iterations, updating its Merged_Brokers set, and (2) sends the
// merged summary and the set to one neighbor of equal or higher degree
// with which it has not yet communicated, preferring the neighbor with the
// smallest degree. Because every broker sends at most once, global
// propagation always costs fewer hops than there are brokers — the flat
// line of Figure 9.
package propagation

import (
	"fmt"
	"sort"
	"sync"

	"github.com/subsum/subsum/internal/par"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// BrokerSet is a bitset over broker ids (the Merged_Brokers set).
type BrokerSet = subid.Mask

// CostModel fixes the storage sizes of the paper's cost equations:
// SST is s_st (arithmetic value size) and SID is s_id (subscription id
// size); both are 4 bytes in Table 2.
type CostModel struct {
	SST int
	SID int
}

// DefaultCostModel returns the Table 2 sizes.
func DefaultCostModel() CostModel { return CostModel{SST: 4, SID: 4} }

// Send records one summary transmission for tracing and accounting.
type Send struct {
	Iteration  int
	From, To   topology.NodeID
	Brokers    []int // Merged_Brokers carried with the summary
	ModelBytes int   // summary size under the paper's cost model
	WireBytes  int   // actual encoded size
}

// Result is the outcome of one propagation phase.
type Result struct {
	// Merged[i] is broker i's multi-broker summary after the phase: its
	// own subscriptions plus everything it received.
	Merged []*summary.Summary
	// MergedBrokers[i] is broker i's Merged_Brokers set.
	MergedBrokers []BrokerSet
	// Sends is the full transmission log in execution order.
	Sends []Send
	// Hops is the total number of broker-to-broker messages (= len(Sends)).
	Hops int
	// ModelBytes and WireBytes are the total bandwidth under the paper's
	// cost model and the real codec, respectively.
	ModelBytes int64
	WireBytes  int64
}

// encBufPool recycles per-send encode buffers across Run invocations.
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Run executes Algorithm 2 over the overlay g, where own[i] is broker i's
// (delta) summary for this period. It returns the per-broker merged
// summaries, Merged_Brokers sets, and full cost accounting. own summaries
// are not mutated; a broker that receives nothing keeps Merged[i] as an
// alias of own[i] (copy-on-receive), so callers must treat Result.Merged
// as read-only.
//
// Run fans each iteration's per-broker work over all CPUs; see
// RunWorkers for the pool-width knob and the determinism argument.
func Run(g *topology.Graph, own []*summary.Summary, cost CostModel) (*Result, error) {
	return RunWorkers(g, own, cost, 0)
}

// RunWorkers is Run with an explicit worker-pool width (<= 0 means one
// worker per CPU, 1 runs fully serial). Results are bit-identical at any
// width:
//
//   - The sends come from Schedule, which fixes the deterministic Sends
//     order.
//   - Payload encodes run in parallel across the iteration's senders.
//     Each broker sends at most once per phase, deliveries land only
//     after all of an iteration's encodes, and encoding touches only the
//     sender's own summary, so encodes never overlap on a summary —
//     provided own[] holds n distinct Summary values (aliasing two
//     brokers to one *Summary was never supported).
//   - Deliveries run in parallel across *targets*; each target applies
//     its own deliveries in Sends order, and a merge touches only the
//     target's summary plus the immutable payload bytes.
//
// Each send encodes the sender's merged summary once into a pooled
// buffer; the immutable byte slice is what travels (its length is the
// send's WireBytes) and the receiver folds it in with MergeEncoded — no
// per-send Clone, no intermediate decoded Summary.
func RunWorkers(g *topology.Graph, own []*summary.Summary, cost CostModel, workers int) (*Result, error) {
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
		res.Merged[i] = own[i]
		res.MergedBrokers[i] = subid.NewMask(n)
		res.MergedBrokers[i].Set(i)
	}
	// owned[i] flips when Merged[i] becomes a private clone (first receive).
	owned := make([]bool, n)

	type delivery struct {
		from, to   topology.NodeID
		payload    *[]byte // pooled wire-form summary, shared with WireBytes accounting
		brokers    BrokerSet
		modelBytes int
	}

	var deliveries []delivery
	var targets []topology.NodeID // distinct delivery targets, first-seen order
	var perTarget map[topology.NodeID][]int
	for _, round := range Schedule(g) {
		// Step 1 happened implicitly: res.Merged[from] already holds own ⊕
		// everything received in previous iterations.
		deliveries = deliveries[:0]
		for _, h := range round.Sends {
			deliveries = append(deliveries, delivery{
				from: h.From, to: h.To, brokers: res.MergedBrokers[h.From].Clone(),
			})
		}

		// Encode every sender's summary in parallel. Senders are distinct
		// brokers, so each task mutates (lazily compacts) only its own
		// summary.
		par.Sweep(len(deliveries), workers, func(i int) {
			d := &deliveries[i]
			payload := encBufPool.Get().(*[]byte)
			*payload = res.Merged[d.from].Encode((*payload)[:0])
			d.payload = payload
			d.modelBytes = res.Merged[d.from].SizeBytes(cost.SST, cost.SID)
		})
		for _, d := range deliveries {
			send := Send{
				Iteration:  round.Iteration,
				From:       d.from,
				To:         d.to,
				Brokers:    d.brokers.Bits(),
				ModelBytes: d.modelBytes,
				WireBytes:  len(*d.payload),
			}
			res.Sends = append(res.Sends, send)
			res.ModelBytes += int64(send.ModelBytes)
			res.WireBytes += int64(send.WireBytes)
		}

		// Deliveries land at the end of the iteration, so equal-degree
		// exchanges in the same iteration do not see each other's summary.
		// Parallelism is across targets; one target's deliveries apply in
		// send order, so the merged state is width-independent.
		targets = targets[:0]
		if perTarget == nil {
			perTarget = make(map[topology.NodeID][]int, 16)
		}
		for i, d := range deliveries {
			if _, seen := perTarget[d.to]; !seen {
				targets = append(targets, d.to)
			}
			perTarget[d.to] = append(perTarget[d.to], i)
		}
		err := par.SweepErr(len(targets), workers, func(ti int) error {
			to := targets[ti]
			if !owned[to] {
				res.Merged[to] = res.Merged[to].Clone()
				owned[to] = true
			}
			for _, di := range perTarget[to] {
				d := deliveries[di]
				err := res.Merged[to].MergeEncoded(*d.payload)
				encBufPool.Put(d.payload)
				if err != nil {
					return fmt.Errorf("propagation: merging at broker %d: %w", to, err)
				}
				for _, b := range d.brokers.Bits() {
					res.MergedBrokers[to].Set(b)
				}
			}
			return nil
		})
		for to := range perTarget {
			delete(perTarget, to)
		}
		if err != nil {
			return nil, err
		}
	}
	res.Hops = len(res.Sends)
	return res, nil
}

// Hop is one scheduled summary transmission of Algorithm 2.
type Hop struct {
	From, To topology.NodeID
}

// Round is one degree iteration of Algorithm 2 in which somebody sends:
// the brokers of degree Iteration that have an eligible target, in
// ascending sender id. Every send of a round is made before any of them
// is delivered.
type Round struct {
	Iteration int
	Sends     []Hop
}

// Schedule returns who sends to whom in one phase of Algorithm 2 over g,
// in execution order; iterations in which nobody sends are left out. The
// choice depends on degrees and on who has already exchanged with whom in
// this phase — never on a summary — so it is a function of the overlay
// alone, the same every period: the offline executor (RunWorkers) and the
// live period engine (core.Network.Propagate) both walk this one schedule.
// "Has not communicated in any of the previous iterations" is scoped to
// one phase and covers both ends of an exchange, the receiving one too.
func Schedule(g *topology.Graph) []Round {
	n := g.Len()
	communicated := make([]map[topology.NodeID]bool, n)
	for i := range communicated {
		communicated[i] = make(map[topology.NodeID]bool)
	}
	var rounds []Round
	for iter, maxDegree := 1, g.MaxDegree(); iter <= maxDegree; iter++ {
		var sends []Hop
		for node := 0; node < n; node++ {
			id := topology.NodeID(node)
			if g.Degree(id) != iter {
				continue
			}
			target, ok := pickTarget(g, id, iter, communicated[node])
			if !ok {
				continue
			}
			communicated[node][target] = true
			communicated[target][id] = true
			sends = append(sends, Hop{From: id, To: target})
		}
		if len(sends) > 0 {
			rounds = append(rounds, Round{Iteration: iter, Sends: sends})
		}
	}
	return rounds
}

// pickTarget selects the neighbor to send to among those of equal or
// higher degree not yet communicated with, preferring the smallest degree
// (the paper's stated preference) — but smallest among the *strictly
// higher* degrees first, falling back to equal-degree neighbors (smallest
// id) only when no higher-degree neighbor is eligible. Two equal-degree
// neighbors send in the same iteration, so an exchange between them
// strands both summaries for the rest of the phase; routing toward
// strictly higher degrees keeps the multi-broker summaries flowing to the
// hubs that Algorithm 3 examines first. Every choice in the paper's
// Figure 7 walkthrough is consistent with this rule.
func pickTarget(g *topology.Graph, node topology.NodeID, degree int, communicated map[topology.NodeID]bool) (topology.NodeID, bool) {
	best := topology.NodeID(-1)
	bestDegree := 0
	for _, m := range g.Neighbors(node) {
		d := g.Degree(m)
		if d <= degree || communicated[m] {
			continue
		}
		if best < 0 || d < bestDegree || (d == bestDegree && m < best) {
			best, bestDegree = m, d
		}
	}
	if best >= 0 {
		return best, true
	}
	for _, m := range g.Neighbors(node) {
		if g.Degree(m) == degree && !communicated[m] {
			return m, true // equal degree, smallest id (neighbors are sorted)
		}
	}
	return 0, false
}

// FormatTrace renders the send log like the Figure 7 walkthrough (1-based
// broker numbers to match the paper's figure).
func (r *Result) FormatTrace() string {
	var b []byte
	lastIter := 0
	for _, s := range r.Sends {
		if s.Iteration != lastIter {
			b = append(b, fmt.Sprintf("iteration %d:\n", s.Iteration)...)
			lastIter = s.Iteration
		}
		brokers := make([]int, len(s.Brokers))
		for i, id := range s.Brokers {
			brokers[i] = id + 1
		}
		sort.Ints(brokers)
		b = append(b, fmt.Sprintf("  broker %d -> broker %d, Merged_Brokers=%v, %d model bytes\n",
			int(s.From)+1, int(s.To)+1, brokers, s.ModelBytes)...)
	}
	return string(b)
}

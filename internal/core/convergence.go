// Convergence/staleness observability: every summary payload carries the
// sender's period epoch (see the summary header in core.go), every broker
// maintains a per-peer vector of last-applied epochs, and this file turns
// those vectors into lags in one place (convergence). Everything else is
// read from its report: the per-broker staleness gauge and the journal's
// convergence record at the end of every period, /debug/convergence, and
// the watchdog's staleness check.
package core

import (
	"strconv"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
)

// newStalenessGauges resolves every broker's
// convergence_staleness_periods gauge once in New, so the per-period
// refresh never touches the registry maps.
func newStalenessGauges(r *metrics.Registry, n int) []*metrics.Gauge {
	vec := r.GaugeVec("convergence_staleness_periods")
	out := make([]*metrics.Gauge, n)
	for i := range out {
		out[i] = vec.With(strconv.Itoa(i))
	}
	return out
}

// PeerEpoch is one tracked entry of a broker's convergence vector.
type PeerEpoch struct {
	Peer      int   `json:"peer"`
	Epoch     int64 `json:"epoch"`
	Staleness int64 `json:"staleness"`
}

// BrokerConvergence is one broker's convergence state: its tracked peer
// epochs plus the derived lags. FullSyncAge and RetractionLag are -1
// when no payload of that class was ever applied.
type BrokerConvergence struct {
	Broker        int         `json:"broker"`
	Peers         []PeerEpoch `json:"peers,omitempty"`
	MaxStaleness  int64       `json:"max_staleness"`
	FullSyncAge   int64       `json:"full_sync_age"`
	RetractionLag int64       `json:"retraction_lag"`
}

// ConvergenceReport is the network-wide convergence snapshot served, in
// a HealthReport, by /debug/convergence.
type ConvergenceReport struct {
	Period         int64               `json:"period"`
	FullSyncEvery  int                 `json:"full_sync_every"`
	MaxStaleness   int64               `json:"max_staleness"`
	LaggingEntries int                 `json:"lagging_entries"`
	Brokers        []BrokerConvergence `json:"brokers"`
}

// convergence derives every broker's lags from its epoch vector against
// period: the one place epoch vectors become lags.
//
// A broker tracks peer p once a stamped payload claiming p has been
// applied; untracked peers (and the broker itself) are excluded, because
// under the paper's degree-ordered flows a leaf legitimately never hears
// about most of the network, and staleness measures decay of knowledge
// the broker once had. A tracked entry's staleness is period − epoch,
// never negative; a broker's MaxStaleness is the largest, and an entry
// lagging by one period or more counts in LaggingEntries. Each broker's
// vector is read under its own lock, so a period completing during a
// concurrent call can skew cross-broker staleness by at most one period.
func (net *Network) convergence(period int64) *ConvergenceReport {
	r := &ConvergenceReport{
		Period:        period,
		FullSyncEvery: net.cfg.FullSyncEvery,
		Brokers:       make([]BrokerConvergence, len(net.brokers)),
	}
	for i, b := range net.brokers {
		bc := BrokerConvergence{Broker: i, FullSyncAge: -1, RetractionLag: -1}
		b.ReadEpochs(func(peers []int64, lastFull, lastRetract int64) {
			for p, e := range peers {
				if p == i || e < 0 {
					continue
				}
				d := max(period-e, 0)
				bc.Peers = append(bc.Peers, PeerEpoch{Peer: p, Epoch: e, Staleness: d})
				bc.MaxStaleness = max(bc.MaxStaleness, d)
				if d > 0 {
					r.LaggingEntries++
				}
			}
			if lastFull >= 0 {
				bc.FullSyncAge = period - lastFull
			}
			if lastRetract >= 0 {
				bc.RetractionLag = period - lastRetract
			}
		})
		r.MaxStaleness = max(r.MaxStaleness, bc.MaxStaleness)
		r.Brokers[i] = bc
	}
	return r
}

// refreshConvergence sets every broker's staleness gauge and journals
// the period's convergence record. Called at the end of each Propagate
// period, under periodMu.
func (net *Network) refreshConvergence() {
	r := net.convergence(int64(net.periods))
	for i, bc := range r.Brokers {
		net.staleness[i].Set(bc.MaxStaleness)
	}
	net.rec.Record(flight.EvConvergence, -1, r.Period, r.MaxStaleness, int64(r.LaggingEntries), "")
}

// Convergence snapshots every broker's convergence state against the
// current period. Safe to call concurrently with propagation: the period
// counter is atomic and each broker's vector is read under its own lock.
func (net *Network) Convergence() *ConvergenceReport {
	return net.convergence(net.periodCount.Load())
}

// HealthReport bundles the summary-health surfaces: convergence epochs
// and false-positive attribution. Served by /debug/convergence.
type HealthReport struct {
	Convergence    *ConvergenceReport `json:"convergence"`
	FalsePositives *broker.FPReport   `json:"false_positives"`
}

// healthTopK bounds the top-K slice shipped in a health report.
const healthTopK = 16

// Health snapshots the network's summary-health state.
func (net *Network) Health() *HealthReport {
	return &HealthReport{
		Convergence:    net.Convergence(),
		FalsePositives: net.attrib.Report(healthTopK),
	}
}

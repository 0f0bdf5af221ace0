// Convergence/staleness observability: every summary payload carries the
// sender's period epoch (see the summary header in core.go), every broker
// maintains a per-peer vector of last-applied epochs, and this file turns
// those vectors into the network-level health surface — per-broker
// staleness/full-sync-age/retraction-lag gauges refreshed at the end of
// every period, a structured report for /debug/convergence, and the
// journal's per-period convergence record.
package core

import (
	"strconv"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
)

// convObs is one broker's convergence gauges, resolved once in New so
// the per-period refresh never touches the registry maps.
type convObs struct {
	staleness   *metrics.Gauge // max periods behind, over tracked peers
	fullSyncAge *metrics.Gauge // periods since the last applied full sync
	retractLag  *metrics.Gauge // periods since the last applied retraction payload
}

func newConvObs(r *metrics.Registry, n int) []convObs {
	st := r.GaugeVec("convergence_staleness_periods")
	fs := r.GaugeVec("convergence_full_sync_age")
	rl := r.GaugeVec("convergence_retraction_lag")
	out := make([]convObs, n)
	for i := range out {
		label := strconv.Itoa(i)
		out[i] = convObs{staleness: st.With(label), fullSyncAge: fs.With(label), retractLag: rl.With(label)}
	}
	return out
}

// refreshConvergenceGauges recomputes every broker's staleness gauges
// from its epoch vector and journals the period's convergence record.
// Called at the end of each Propagate period (under periodMu); the
// per-broker read is allocation-free (ReadEpochs).
//
// Gauge semantics: staleness is the maximum, over peers this broker has
// ever applied a stamped payload for, of (current period − last applied
// epoch). Untracked peers are excluded — under the paper's degree-
// ordered flows a leaf legitimately never hears about most of the
// network; staleness measures decay of knowledge the broker once had.
// Full-sync age counts from the period when no sync has ever been
// applied; retraction lag is 0 until the first retraction-carrying
// payload arrives (nothing to lag behind).
func (net *Network) refreshConvergenceGauges() {
	period := net.periodCount.Load()
	if period == 0 || len(net.conv) == 0 {
		return
	}
	var maxStale, lagging int64
	for i, b := range net.brokers {
		var st, fsAge, rLag int64
		b.ReadEpochs(func(peers []int64, lastFull, lastRetract int64) {
			for p, e := range peers {
				if p == i || e < 0 {
					continue
				}
				if d := period - e; d > 0 {
					if d > st {
						st = d
					}
					lagging++
				}
			}
			if lastFull >= 0 {
				fsAge = period - lastFull
			} else {
				fsAge = period
			}
			if lastRetract >= 0 {
				rLag = period - lastRetract
			}
		})
		net.conv[i].staleness.Set(st)
		net.conv[i].fullSyncAge.Set(fsAge)
		net.conv[i].retractLag.Set(rLag)
		if st > maxStale {
			maxStale = st
		}
	}
	net.rec.Record(flight.EvConvergence, -1, period, maxStale, lagging, "")
}

// PeerEpoch is one tracked entry of a broker's convergence vector.
type PeerEpoch struct {
	Peer      int   `json:"peer"`
	Epoch     int64 `json:"epoch"`
	Staleness int64 `json:"staleness"`
}

// BrokerConvergence is one broker's convergence state: its tracked peer
// epochs plus the derived lags. FullSyncAge and RetractionLag are -1
// when no payload of that class was ever applied (the raw truth; the
// gauges round those cases to period and 0 respectively).
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

// Convergence snapshots every broker's epoch vector against the current
// period. Safe to call concurrently with propagation: the period counter
// is atomic and each broker's vector is read under its own lock, so the
// report is per-broker consistent (a period completing mid-snapshot can
// skew cross-broker staleness by at most one period).
func (net *Network) Convergence() *ConvergenceReport {
	period := net.periodCount.Load()
	r := &ConvergenceReport{
		Period:        period,
		FullSyncEvery: net.cfg.FullSyncEvery,
		Brokers:       make([]BrokerConvergence, len(net.brokers)),
	}
	for i, b := range net.brokers {
		st := b.EpochState()
		bc := BrokerConvergence{
			Broker:        i,
			FullSyncAge:   -1,
			RetractionLag: -1,
		}
		for p, e := range st.Peers {
			if p == i || e < 0 {
				continue
			}
			d := period - e
			if d < 0 {
				d = 0
			}
			bc.Peers = append(bc.Peers, PeerEpoch{Peer: p, Epoch: e, Staleness: d})
			if d > bc.MaxStaleness {
				bc.MaxStaleness = d
			}
			if d > 0 {
				r.LaggingEntries++
			}
		}
		if st.LastFullSync >= 0 {
			bc.FullSyncAge = period - st.LastFullSync
		}
		if st.LastRetract >= 0 {
			bc.RetractionLag = period - st.LastRetract
		}
		if bc.MaxStaleness > r.MaxStaleness {
			r.MaxStaleness = bc.MaxStaleness
		}
		r.Brokers[i] = bc
	}
	return r
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

// FPReport snapshots false-positive attribution alone: the top n triples
// (n <= 0 = all tracked) plus per-attribute precision.
func (net *Network) FPReport(n int) *broker.FPReport { return net.attrib.Report(n) }

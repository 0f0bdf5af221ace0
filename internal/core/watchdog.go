// Invariant watchdog: a background checker that continuously proves
// three structural invariants of the live engine hold, on a running
// network, without stopping it.
//
//  1. Coverage: every locally-registered subscription appears in its own
//     broker's merged summary. Summaries may overstate coverage (lossy
//     false positives are the paper's design), but an understatement can
//     route events away from a real subscriber — the one failure the "no
//     false negatives" guarantee forbids.
//  2. Flow conservation: every routed event hop terminates in exactly
//     one of forwarded / suppressed / handler-error, so
//     routed == forwarded + suppressed + handler_errors whenever the
//     engine is quiescent, and ≥ holds at every instant.
//  3. Byte reconciliation: the propagation layer's summary-byte
//     accounting equals what the bus saw put on the wire for summaries,
//     delivered plus fault-dropped.
//  4. Churn convergence: after a quiescent full-sync period, every
//     broker's merged summary holds exactly the live subscriptions of
//     each broker it claims — retractions and resyncs leave no stale
//     remote rows behind.
//  5. Bounded staleness: under quiescence with a full-sync schedule, no
//     broker's epoch-vector entry for a tracked peer lags the current
//     period by more than FullSyncEvery periods — a larger lag means
//     that peer's summary traffic is being lost faster than the sync
//     schedule repairs it.
//
// Checks are race-safe against the live engine: strict equalities are
// only asserted when the checker can prove the relevant counters were
// stable across its reads (empty bus, unchanged totals, or an
// uncontended period lock); otherwise the check degrades to the
// inequality that must hold mid-flight. Violations are counted in the
// registry and journaled in the flight recorder, so a dashboard shows
// them live and a crash dump preserves them.
package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/subid"
)

// Violation names for the watchdog_violations_total{check} counter family.
const (
	CheckCoverage    = "coverage"
	CheckFlow        = "flow"
	CheckBytes       = "bytes"
	CheckConvergence = "convergence"
	CheckStaleness   = "staleness"
)

// Violation is one detected invariant breach.
type Violation struct {
	Check  string `json:"check"`
	Broker int    `json:"broker"` // -1 for network-wide checks
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	if v.Broker >= 0 {
		return fmt.Sprintf("%s[broker %d]: %s", v.Check, v.Broker, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Check, v.Detail)
}

// CheckInvariants runs every watchdog check once, immediately, and
// returns the violations found (nil when the engine is healthy). Safe to
// call on a live network at any time; it never blocks event or
// propagation processing.
func (net *Network) CheckInvariants() []Violation {
	var out []Violation
	out = append(out, net.checkCoverage()...)
	out = append(out, net.checkFlow()...)
	out = append(out, net.checkBytes()...)
	out = append(out, net.checkConvergence()...)
	out = append(out, net.checkStaleness()...)
	return out
}

// checkCoverage verifies invariant 1 exactly: MissingFromMerged compares
// the raw subscription table against the merged summary under the
// broker's own mutex, so there is no window where a freshly-inserted
// subscription is visible in one but not the other.
func (net *Network) checkCoverage() []Violation {
	var out []Violation
	for i, b := range net.brokers {
		if missing := b.MissingFromMerged(); len(missing) > 0 {
			out = append(out, Violation{
				Check:  CheckCoverage,
				Broker: i,
				Detail: fmt.Sprintf("%d owned subscription(s) absent from own merged summary (first: %v)", len(missing), missing[0]),
			})
		}
	}
	return out
}

// checkFlow verifies invariant 2. Terminal counters are incremented
// after the routed counter within one handler call, so at every instant
// forwarded+suppressed+handler_errors ≤ routed — reading the terminals
// first and routed last makes the inequality safe to assert under load.
// The strict equality is asserted only when the bus was observed empty
// before and after with the routed total unchanged, which proves no
// handler was mid-flight between the reads.
func (net *Network) checkFlow() []Violation {
	inflightBefore := net.bus.Inflight()
	routedBefore := net.obs.eventsRouted.Value()
	terminals := net.obs.eventsForwarded.Value() +
		net.obs.eventsSuppressed.Value() +
		net.bus.Stats().HandlerErrors[netsim.KindEvent]
	routedAfter := net.obs.eventsRouted.Value()
	inflightAfter := net.bus.Inflight()

	stable := inflightBefore == 0 && inflightAfter == 0 && routedBefore == routedAfter
	if stable && terminals != routedAfter {
		return []Violation{{
			Check:  CheckFlow,
			Broker: -1,
			Detail: fmt.Sprintf("routed=%d but forwarded+suppressed+handler_errors=%d with bus idle", routedAfter, terminals),
		}}
	}
	if !stable && terminals > routedAfter {
		return []Violation{{
			Check:  CheckFlow,
			Broker: -1,
			Detail: fmt.Sprintf("terminal decisions %d exceed routed events %d", terminals, routedAfter),
		}}
	}
	return nil
}

// checkBytes verifies invariant 3. Strict equality needs the period lock
// (TryLock — never block a live Propagate): holding it proves no period
// is mid-flight, so the propagation layer's cumulative byte counter and
// the bus's summary-byte accounting describe the same completed set of
// sends. Without the lock, the bus necessarily runs ahead of the
// propagation counter (it counts each send immediately; Propagate adds
// the period total at period end), so only ≥ can be asserted.
func (net *Network) checkBytes() []Violation {
	if net.periodMu.TryLock() {
		stats := net.bus.Stats()
		wire := stats.Bytes[netsim.KindSummary] + stats.DroppedBytes[netsim.KindSummary]
		obs := net.obs.propagationBytes.Value()
		net.periodMu.Unlock()
		if wire != obs {
			return []Violation{{
				Check:  CheckBytes,
				Broker: -1,
				Detail: fmt.Sprintf("propagation_bytes=%d but bus summary bytes (sent+dropped)=%d", obs, wire),
			}}
		}
		return nil
	}
	obs := net.obs.propagationBytes.Value()
	stats := net.bus.Stats()
	wire := stats.Bytes[netsim.KindSummary] + stats.DroppedBytes[netsim.KindSummary]
	if wire < obs {
		return []Violation{{
			Check:  CheckBytes,
			Broker: -1,
			Detail: fmt.Sprintf("bus summary bytes %d fell behind propagation_bytes %d mid-period", wire, obs),
		}}
	}
	return nil
}

// checkConvergence verifies invariant 4 (churn convergence): after a
// full-sync period, every remote merged summary holds *exactly* the live
// subscriptions of each broker it claims coverage for — no stale rows
// for retracted subscriptions survive a resync. The exact equality only
// holds when nothing moved, so the check asserts it only under proof of
// stability: the period lock is free (TryLock), the last completed
// period was a full sync, the bus is idle, and the churn sequence is
// unchanged from that period's start through the end of this pass.
// Otherwise the check abstains — coverage mid-churn is checked by the
// other invariants.
func (net *Network) checkConvergence() []Violation {
	if !net.periodMu.TryLock() {
		return nil
	}
	defer net.periodMu.Unlock()
	if !net.lastPeriodFullSync || net.bus.Inflight() != 0 ||
		net.churnSeq.Load() != net.churnAtPeriodStart {
		return nil
	}
	live := make([]int, len(net.brokers))
	for i, b := range net.brokers {
		live[i] = b.NumSubscriptions()
	}
	var out []Violation
	for i, b := range net.brokers {
		counts := b.MergedOwnerCounts()
		for _, bit := range b.MergedBrokers().Bits() {
			if got := counts[subid.BrokerID(bit)]; got != live[bit] {
				out = append(out, Violation{
					Check:  CheckConvergence,
					Broker: i,
					Detail: fmt.Sprintf("merged summary holds %d subscription(s) of broker %d, owner has %d live", got, bit, live[bit]),
				})
			}
		}
	}
	if net.churnSeq.Load() != net.churnAtPeriodStart {
		// Churn raced the reads above; the snapshot is unusable.
		return nil
	}
	return out
}

// checkStaleness verifies invariant 5 (bounded staleness under
// quiescence): with the full-sync schedule on, no broker's view of a
// peer it tracks may lag the current period by more than FullSyncEvery
// periods — healthy flows refresh every tracked epoch entry each period,
// and even a peer whose delta traffic is being lost is repaired by the
// next applied full sync. The bound is only meaningful when nothing is
// mid-flight, so the check asserts it under the same stability proof as
// the convergence check: the period lock free (TryLock) and the bus
// idle. Unlike convergence it does not require the last period to have
// been a full sync — staleness is exactly the signal that must fire
// *between* syncs, while a peer's messages are being lost.
func (net *Network) checkStaleness() []Violation {
	bound := int64(net.cfg.FullSyncEvery)
	if bound <= 0 {
		return nil // no sync schedule: staleness is unbounded by design
	}
	if !net.periodMu.TryLock() {
		return nil
	}
	defer net.periodMu.Unlock()
	if net.bus.Inflight() != 0 {
		return nil
	}
	period := int64(net.periods)
	if period <= bound {
		return nil // too early for any entry to legitimately exceed the bound
	}
	var out []Violation
	for _, bc := range net.convergence(period).Brokers {
		for _, pe := range bc.Peers {
			if pe.Staleness > bound {
				out = append(out, Violation{
					Check:  CheckStaleness,
					Broker: bc.Broker,
					Detail: fmt.Sprintf("view of peer %d last refreshed at period %d, %d periods behind (bound %d)", pe.Peer, pe.Epoch, pe.Staleness, bound),
				})
			}
		}
	}
	return out
}

// Watchdog periodically runs CheckInvariants against its network,
// recording results as metrics and flight-recorder entries.
type Watchdog struct {
	net      *Network
	interval time.Duration

	checks   *metrics.Counter
	perCheck *metrics.CounterVec

	mu   sync.Mutex
	last []Violation

	stopOnce sync.Once
	done     chan struct{}
	stopped  chan struct{}
}

// StartWatchdog launches the invariant watchdog, checking every
// `every` (clamped to ≥ 10ms). Results land in the network's registry as
// watchdog_checks and watchdog_violations_total{check}, registered at
// zero for every check so a healthy run exports the family too, and each
// violation is journaled. Stop it with Watchdog.Stop (Close does
// so automatically). Only one watchdog per network.
func (net *Network) StartWatchdog(every time.Duration) *Watchdog {
	if net.watchdog != nil {
		return net.watchdog
	}
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	w := &Watchdog{
		net:      net,
		interval: every,
		checks:   net.metrics.Counter("watchdog_checks"),
		perCheck: net.metrics.CounterVec("watchdog_violations_total"),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	for _, c := range []string{CheckCoverage, CheckFlow, CheckBytes, CheckConvergence, CheckStaleness} {
		w.perCheck.With(c)
	}
	net.watchdog = w
	go w.run()
	return w
}

func (w *Watchdog) run() {
	defer close(w.stopped)
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-ticker.C:
			w.RunOnce()
		}
	}
}

// RunOnce performs one check pass, recording the outcome. Exposed so
// tests (and debug handlers) can force a check without waiting an
// interval.
func (w *Watchdog) RunOnce() []Violation {
	violations := w.net.CheckInvariants()
	w.checks.Inc()
	for _, v := range violations {
		w.perCheck.With(v.Check).Inc()
		w.net.rec.Record(flight.EvWatchdogViolation, v.Broker, 0, 0, 0, v.String())
	}
	w.mu.Lock()
	w.last = violations
	w.mu.Unlock()
	return violations
}

// Last returns the violations found by the most recent check pass.
func (w *Watchdog) Last() []Violation {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Violation, len(w.last))
	copy(out, w.last)
	return out
}

// Stop halts the watchdog and waits for its goroutine to exit.
// Idempotent.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.done) })
	<-w.stopped
}

package core

import (
	"strings"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
)

// driveTraffic pushes a workload through the network so every watchdog
// counter is nonzero: subscriptions, two propagation periods, and a batch
// of published events, flushed to quiescence.
func driveTraffic(t *testing.T, net *Network, s *schema.Schema) {
	t.Helper()
	subs := []string{
		`symbol = OTE && price > 8.30`,
		`price > 100`,
		`volume > 50000`,
	}
	var sink collector
	for i, src := range subs {
		sub, err := schema.ParseSubscription(s, src)
		if err != nil {
			t.Fatal(err)
		}
		at := topology.NodeID(i % net.Len())
		if _, err := net.Subscribe(at, sub, sink.deliver(s)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := net.Propagate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		ev, err := schema.ParseEvent(s, `exchange = FSE, symbol = OTE, price = 8.50, volume = 60000`)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Publish(topology.NodeID(i%net.Len()), ev); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
}

func TestWatchdogCleanOnHealthyNetwork(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Figure7Tree(), s)
	driveTraffic(t, net, s)
	if v := net.CheckInvariants(); len(v) != 0 {
		t.Fatalf("healthy network reported violations: %v", v)
	}
}

func TestWatchdogCleanUnderFaults(t *testing.T) {
	// Fault-injected drops must not trip the byte reconciliation: dropped
	// summary bytes are accounted on the bus side of the equation.
	s := stockSchema(t)
	net := newNetwork(t, topology.Figure7Tree(), s)
	drop := 0
	net.InjectFaults(func(m netsim.Message) bool {
		if m.Kind == netsim.KindSummary {
			drop++
			return drop%3 == 0
		}
		return false
	})
	driveTraffic(t, net, s)
	if net.Stats().Dropped[netsim.KindSummary] == 0 {
		t.Fatal("fault injection never fired; test is vacuous")
	}
	if v := net.CheckInvariants(); len(v) != 0 {
		t.Fatalf("dropping network reported violations: %v", v)
	}
}

// TestWatchdogCatchesCorruptedSummary is the acceptance test for the
// watchdog: seed a deliberate coverage understatement (an owned
// subscription erased from the broker's own merged summary) and require
// the running watchdog to report it within one check interval.
func TestWatchdogCatchesCorruptedSummary(t *testing.T) {
	s := stockSchema(t)
	rec := flight.NewRecorder(1 << 16)
	net, err := New(Config{
		Topology: topology.Figure7Tree(),
		Schema:   s,
		Mode:     interval.Lossy,
		Flight:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	driveTraffic(t, net, s)

	sub, err := schema.ParseSubscription(s, `price > 5`)
	if err != nil {
		t.Fatal(err)
	}
	var sink collector
	id, err := net.Subscribe(2, sub, sink.deliver(s))
	if err != nil {
		t.Fatal(err)
	}

	const interval = 20 * time.Millisecond
	w := net.StartWatchdog(interval)
	if again := net.StartWatchdog(time.Hour); again != w {
		t.Fatal("second StartWatchdog did not return the existing watchdog")
	}

	// Healthy first: wait for at least one clean pass.
	deadline := time.Now().Add(2 * time.Second)
	for net.Metrics().Counter("watchdog_checks").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never checked")
		}
		time.Sleep(time.Millisecond)
	}
	if got := violationCount(net); got != 0 {
		t.Fatalf("violations before corruption: %v", got)
	}

	net.Broker(2).CorruptMerged(id)
	corrupted := time.Now()
	for violationCount(net) == 0 {
		if time.Since(corrupted) > 2*interval+time.Second {
			t.Fatal("watchdog missed the corrupted summary")
		}
		time.Sleep(time.Millisecond)
	}
	// Detection latency: within one check interval (generous slack for a
	// loaded CI box; the invariant is "next pass sees it").
	if elapsed := time.Since(corrupted); elapsed > interval+time.Second {
		t.Fatalf("detection took %v, want ≤ one interval", elapsed)
	}
	if got := net.Metrics().Counter("watchdog_violations_total{coverage}").Value(); got == 0 {
		t.Fatal("coverage violation not attributed to its check family")
	}
	last := w.Last()
	if len(last) == 0 || last[0].Check != CheckCoverage || last[0].Broker != 2 {
		t.Fatalf("Last() = %v, want coverage violation at broker 2", last)
	}

	// The violation must also be journaled with the broker id.
	found := false
	for _, r := range rec.Records() {
		if r.Type == flight.EvWatchdogViolation && r.Broker == 2 && strings.Contains(r.Note, "coverage") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("violation missing from flight journal")
	}

	w.Stop()
	w.Stop() // idempotent
	checks := net.Metrics().Counter("watchdog_checks").Value()
	time.Sleep(3 * interval)
	if got := net.Metrics().Counter("watchdog_checks").Value(); got != checks {
		t.Fatalf("watchdog kept checking after Stop: %d -> %d", checks, got)
	}
}

// TestWatchdogViolationStrings pins the operator-facing formatting.
// violationCount sums the watchdog_violations_total{check} family.
func violationCount(net *Network) float64 {
	var n float64
	for name, v := range net.Metrics().Map() {
		if strings.HasPrefix(name, "watchdog_violations_total{") {
			n += v
		}
	}
	return n
}

func TestWatchdogViolationStrings(t *testing.T) {
	v := Violation{Check: CheckCoverage, Broker: 3, Detail: "x"}
	if got := v.String(); got != "coverage[broker 3]: x" {
		t.Fatalf("String() = %q", got)
	}
	v = Violation{Check: CheckBytes, Broker: -1, Detail: "y"}
	if got := v.String(); got != "bytes: y" {
		t.Fatalf("String() = %q", got)
	}
}

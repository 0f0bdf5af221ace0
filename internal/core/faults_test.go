package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// TestSummaryLossDoesNotBreakDelivery: even when half of the Algorithm 2
// summary messages are dropped, every published event still reaches
// exactly its matching consumers — Algorithm 3's BROCLI walk compensates
// for missing merged-summary coverage by examining more brokers.
func TestSummaryLossDoesNotBreakDelivery(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	net := newNetwork(t, topology.CW24(), s)

	// Drop 50% of summary messages, deterministically, counting our own
	// drops to check the bus's accounting below.
	var mu sync.Mutex
	var injected int64
	rng := rand.New(rand.NewSource(13))
	net.InjectFaults(func(m netsim.Message) bool {
		if m.Kind != netsim.KindSummary {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(2) == 0 {
			injected++
			return true
		}
		return false
	})

	var rawSubs []*schema.Subscription
	var collectors []*collector
	for i := 0; i < 120; i++ {
		sub := gen.Subscription()
		c := &collector{}
		if _, err := net.Subscribe(topology.NodeID(i%net.Len()), sub, c.deliver(s)); err != nil {
			t.Fatal(err)
		}
		rawSubs = append(rawSubs, sub)
		collectors = append(collectors, c)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	mu.Lock()
	inj := injected
	mu.Unlock()
	if st.Dropped[netsim.KindSummary] == 0 {
		t.Fatal("fault injection inactive")
	}
	if st.Dropped[netsim.KindSummary] != inj {
		t.Fatalf("bus dropped %d summaries, injector dropped %d", st.Dropped[netsim.KindSummary], inj)
	}

	events := make([]*schema.Event, 150)
	for i := range events {
		events[i] = gen.Event(0.9)
		if err := net.Publish(topology.NodeID(i%net.Len()), events[i]); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	for i, c := range collectors {
		want := 0
		for _, ev := range events {
			if rawSubs[i].Matches(ev) {
				want++
			}
		}
		if got := c.count(); got != want {
			t.Fatalf("subscription %d: %d deliveries, want %d (under 50%% summary loss)",
				i, got, want)
		}
	}

	// Healing: disable faults; the next period repairs merged coverage.
	net.InjectFaults(nil)
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
}

// TestEventLossLosesOnlyAffectedEvents: dropped delivery messages lose the
// affected events (at-most-once semantics; the engine does not retransmit)
// but never corrupt later traffic.
func TestEventLossLosesOnlyAffectedEvents(t *testing.T) {
	s := schema.MustNew(schema.Attribute{Name: "x", Type: schema.TypeFloat})
	net := newNetwork(t, topology.Ring(6), s)
	sub, err := schema.ParseSubscription(s, `x > 0`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := net.Subscribe(3, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, `x=1`)
	if err != nil {
		t.Fatal(err)
	}

	// Drop every event-related message while faults are active (the event
	// dies right after the origin broker examines it; broker 3 is never
	// reached).
	net.InjectFaults(func(m netsim.Message) bool {
		return m.Kind == netsim.KindDeliver || m.Kind == netsim.KindEvent && m.From != m.To
	})
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 0 {
		t.Fatalf("deliveries under total loss = %d", c.count())
	}

	// Heal; traffic resumes normally.
	net.InjectFaults(nil)
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 1 {
		t.Fatalf("deliveries after healing = %d, want 1", c.count())
	}
}

// TestPropagateOnClosedNetwork pins Propagate's send-error return: on a
// closed bus the first send of the period fails, the bus error comes back
// with no hop counted and no summary message accounted, and nothing
// panics.
func TestPropagateOnClosedNetwork(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.CW24(), s)
	sub, err := schema.ParseSubscription(s, `price > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Subscribe(3, sub, func(subid.ID, *schema.Event) {}); err != nil {
		t.Fatal(err)
	}
	net.Close()
	hops, err := net.Propagate()
	if err == nil || !strings.Contains(err.Error(), "bus closed") {
		t.Fatalf("Propagate on a closed network: hops=%d err=%v, want the bus error", hops, err)
	}
	if hops != 0 {
		t.Fatalf("hops = %d on a closed network", hops)
	}
	if st := net.Stats(); st.Messages[netsim.KindSummary] != 0 || st.Bytes[netsim.KindSummary] != 0 {
		t.Fatalf("summary traffic counted on a closed bus: %+v", st)
	}
	// A second period fails the same way: the first left no period state behind.
	if _, err := net.Propagate(); err == nil {
		t.Fatal("second Propagate on a closed network succeeded")
	}
}

// TestByteAccountingReconcilesUnderFaults: with event and deliver messages
// lost at random and a broker paused while events queue for it, every
// byte a sender put on the wire is counted exactly once, as sent (Bytes,
// parked messages included) or dropped (DroppedBytes): per kind, the two
// sum to the Size of every message the fault hook saw.
func TestByteAccountingReconcilesUnderFaults(t *testing.T) {
	f := newPipelineFixture(t, topology.CW24(), 72, 0, 300)
	mustPropagate(t, f.net)
	// The hook is the fault plane's first layer, so it sees every message,
	// the ones the loss rules then drop and the pause parks included. It
	// runs serialized under the bus's fault lock.
	var seen [netsim.KindControl + 1]int64
	f.net.InjectFaults(func(m netsim.Message) bool {
		seen[m.Kind] += int64(m.Size)
		return false
	})
	faults := f.net.Faults()
	faults.SetLoss(netsim.KindDeliver, 0.3, 1)
	faults.SetLoss(netsim.KindEvent, 0.1, 2)
	n := f.net.Len()
	half := len(f.events) / 2
	for i, ev := range f.events[:half] {
		if err := f.net.Publish(topology.NodeID(i%n), ev); err != nil {
			t.Fatal(err)
		}
	}
	f.net.Flush()
	paused := f.net.order.Nodes()[0] // the first broker walks are forwarded to
	if err := faults.Pause(paused); err != nil {
		t.Fatal(err)
	}
	for i, ev := range f.events[half:] {
		if err := f.net.Publish(topology.NodeID(i%n), ev); err != nil {
			t.Fatal(err)
		}
	}
	f.net.Flush()
	_, parked := faults.Paused(paused)
	if err := faults.Resume(paused); err != nil {
		t.Fatal(err)
	}
	f.net.Flush()
	f.net.InjectFaults(nil)
	faults.Clear()

	if parked == 0 {
		t.Fatal("nothing was parked at the paused broker; the pause is vacuous")
	}
	st := f.net.Stats()
	for _, k := range []netsim.Kind{netsim.KindEvent, netsim.KindDeliver} {
		if st.Dropped[k] == 0 || st.Messages[k] == 0 {
			t.Fatalf("%s: %d sent, %d dropped; want both", k, st.Messages[k], st.Dropped[k])
		}
		if got := st.Bytes[k] + st.DroppedBytes[k]; got != seen[k] {
			t.Fatalf("%s: %d bytes sent + %d dropped = %d, the hook saw %d", k, st.Bytes[k], st.DroppedBytes[k], got, seen[k])
		}
	}
}

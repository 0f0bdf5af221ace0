package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// stressFixture registers pre-generated subscriptions (with collectors) and
// events on a CW24 network. All subscriptions exist before any concurrent
// phase starts, so the engine's delivery guarantee (zero false negatives,
// zero false positives) must hold for every event regardless of how the
// propagation/publishing race interleaves.
type stressFixture struct {
	net        *Network
	schema     *schema.Schema
	rawSubs    []*schema.Subscription
	collectors []*collector
	events     []*schema.Event
}

func newStressFixture(t *testing.T, nSubs, nEvents int) *stressFixture {
	t.Helper()
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &stressFixture{schema: gen.Schema()}
	f.net = newNetwork(t, topology.CW24(), f.schema)
	for i := 0; i < nSubs; i++ {
		sub := gen.Subscription()
		c := &collector{}
		if _, err := f.net.Subscribe(topology.NodeID(i%f.net.Len()), sub, c.deliver(f.schema)); err != nil {
			t.Fatal(err)
		}
		f.rawSubs = append(f.rawSubs, sub)
		f.collectors = append(f.collectors, c)
	}
	// Pre-generate events on this goroutine: the workload generator's rng
	// is not meant for concurrent use.
	f.events = make([]*schema.Event, nEvents)
	for i := range f.events {
		f.events[i] = gen.Event(0.9)
	}
	return f
}

// assertExactDeliveries checks every collector received exactly the events
// its subscription matches — no false negatives and no false positives.
func (f *stressFixture) assertExactDeliveries(t *testing.T) {
	t.Helper()
	for i, c := range f.collectors {
		want := 0
		for _, ev := range f.events {
			if f.rawSubs[i].Matches(ev) {
				want++
			}
		}
		if got := c.count(); got != want {
			t.Fatalf("subscription %d: %d deliveries, want %d", i, got, want)
		}
	}
}

// TestConcurrentPublishPropagateStress races publishers against repeated
// Propagate periods and mid-flight schema extension, then asserts exact
// end-to-end delivery and zero loss counters. Run under -race this is the
// engine's core concurrency regression test (the Network.period pointer
// race and the bus quiescence-counter race were both only reachable from
// this interleaving).
func TestConcurrentPublishPropagateStress(t *testing.T) {
	const publishers, perPublisher, propagateRounds = 4, 40, 3
	f := newStressFixture(t, 72, publishers*perPublisher)

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				idx := p*perPublisher + i
				at := topology.NodeID(idx % f.net.Len())
				if err := f.net.Publish(at, f.events[idx]); err != nil {
					t.Errorf("publish %d: %v", idx, err)
					return
				}
			}
		}(p)
	}
	// Two goroutines race Propagate against each other and the publishers
	// (periodMu serializes periods; the period pointer handoff is what the
	// race detector watches).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < propagateRounds; r++ {
				if _, err := f.net.Propagate(); err != nil {
					t.Errorf("propagate: %v", err)
					return
				}
			}
		}()
	}
	// Schema extension mid-flight (the paper's Section 6 evolution).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := f.net.ExtendSchema(fmt.Sprintf("stress_attr_%d", i), schema.TypeFloat); err != nil {
				t.Errorf("extend schema: %v", err)
				return
			}
		}
	}()
	// A stats reader hammers the accounting while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = f.net.Stats()
		}
	}()
	wg.Wait()
	f.net.Flush()

	f.assertExactDeliveries(t)

	// Clean run: every loss/error counter must be exactly zero.
	st := f.net.Stats()
	if st.TotalDropped() != 0 || st.TotalErrors() != 0 {
		t.Fatalf("loss counters non-zero on clean run: %+v", st)
	}

	// The extended schema is immediately usable: subscribe on a new
	// attribute, propagate, publish, and expect exact delivery.
	sub, err := schema.ParseSubscription(f.schema, `stress_attr_0 > 10`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := f.net.Subscribe(5, sub, c.deliver(f.schema)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(f.schema, `stress_attr_0=11`)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.net.Publish(17, ev); err != nil {
		t.Fatal(err)
	}
	f.net.Flush()
	if c.count() != 1 {
		t.Fatalf("post-evolution deliveries = %d, want 1", c.count())
	}
}

// TestConcurrentStressWithFaultInjection repeats the race with summary
// loss injected mid-flight. Summary drops degrade merged coverage but not
// delivery (Algorithm 3 walks the uncovered brokers), so exact delivery
// must still hold — and the bus's Dropped counter must equal the number of
// drops the injector performed, exactly.
func TestConcurrentStressWithFaultInjection(t *testing.T) {
	const publishers, perPublisher, propagateRounds = 4, 30, 3
	f := newStressFixture(t, 48, publishers*perPublisher)

	// Injector: drop every other summary message; count our own drops to
	// compare against the bus's Dropped counter exactly.
	var injected, seq atomic.Int64
	dropAlternateSummaries := func(m netsim.Message) bool {
		if m.Kind == netsim.KindSummary && seq.Add(1)%2 == 1 {
			injected.Add(1)
			return true
		}
		return false
	}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				idx := p*perPublisher + i
				if err := f.net.Publish(topology.NodeID(idx%f.net.Len()), f.events[idx]); err != nil {
					t.Errorf("publish %d: %v", idx, err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < propagateRounds; r++ {
			if _, err := f.net.Propagate(); err != nil {
				t.Errorf("propagate: %v", err)
				return
			}
		}
	}()
	// Toggle fault injection while traffic flows (InjectFaults racing
	// Publish and Propagate, per the hardening issue).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			f.net.InjectFaults(dropAlternateSummaries)
			f.net.InjectFaults(nil)
		}
		f.net.InjectFaults(dropAlternateSummaries)
	}()
	wg.Wait()

	// With the injector pinned on, force at least one lossy period so the
	// non-zero assertion below cannot pass vacuously.
	if _, err := f.net.Propagate(); err != nil {
		t.Fatal(err)
	}
	f.net.InjectFaults(nil)
	f.net.Flush()

	f.assertExactDeliveries(t)

	st := f.net.Stats()
	if got, want := st.Dropped[netsim.KindSummary], injected.Load(); got != want {
		t.Fatalf("bus dropped %d summaries, injector dropped %d", got, want)
	}
	if injected.Load() == 0 {
		t.Fatal("fault injection never fired; test is vacuous")
	}
	if st.Dropped[netsim.KindEvent] != 0 || st.Dropped[netsim.KindDeliver] != 0 {
		t.Fatalf("unexpected non-summary drops: %+v", st.Dropped)
	}
	if st.TotalErrors() != 0 {
		t.Fatalf("decode/handler errors on uncorrupted traffic: %+v", st)
	}
}

// TestDecodeErrorsAreCounted feeds each message kind a body it cannot
// read — bytes too short for a summary header, bytes where an event or a
// delivery belongs — directly on the bus and checks the per-kind
// decode-error counters: an unreadable message must never vanish without
// being accounted.
func TestDecodeErrorsAreCounted(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Ring(4), s)
	garbage := []byte{0xff} // too short for even the u16 mask header
	for _, k := range []netsim.Kind{netsim.KindSummary, netsim.KindEvent, netsim.KindDeliver} {
		if err := net.bus.Send(netsim.Message{From: 0, To: 1, Kind: k, Body: garbage, Size: len(garbage)}); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	st := net.Stats()
	for _, k := range []netsim.Kind{netsim.KindSummary, netsim.KindEvent, netsim.KindDeliver} {
		if st.DecodeErrors[k] != 1 {
			t.Fatalf("DecodeErrors[%v] = %d, want 1 (stats %+v)", k, st.DecodeErrors[k], st.DecodeErrors)
		}
	}
	if st.TotalErrors() != 3 {
		t.Fatalf("TotalErrors = %d, want 3", st.TotalErrors())
	}

	// Corruption must not poison later traffic: normal delivery still works.
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	var c collector
	if _, err := net.Subscribe(2, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `price=5`)
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 1 {
		t.Fatalf("deliveries after corruption = %d, want 1", c.count())
	}
}

package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// denseWorkload returns a generator tuned for match density (2-attribute
// subscriptions, 8-attribute events, canonical ranges only): the default
// Table 2 mix makes full-conjunction matches so rare that a delivery
// differential over a few hundred events would be nearly vacuous.
func denseWorkload(t *testing.T) *workload.Generator {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.AttrsPerSub = 2
	cfg.AttrsPerEvent = 8
	cfg.Subsumption = 1.0
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// newPipelineFixture is a stressFixture on any overlay: nSubs dense
// subscriptions spread round-robin, then hubSubs more at the first broker
// in forwarding order (the way to make one merged summary large), and
// nEvents pre-generated events.
func newPipelineFixture(t *testing.T, g *topology.Graph, nSubs, hubSubs, nEvents int) *stressFixture {
	t.Helper()
	gen := denseWorkload(t)
	f := &stressFixture{schema: gen.Schema()}
	f.net = newNetwork(t, g, f.schema)
	for i := 0; i < nSubs+hubSubs; i++ {
		at := topology.NodeID(i % f.net.Len())
		if i >= nSubs {
			at = f.net.order.Nodes()[0]
		}
		sub := gen.Subscription()
		c := &collector{}
		if _, err := f.net.Subscribe(at, sub, c.deliver(f.schema)); err != nil {
			t.Fatal(err)
		}
		f.rawSubs = append(f.rawSubs, sub)
		f.collectors = append(f.collectors, c)
	}
	f.events = make([]*schema.Event, nEvents)
	for i := range f.events {
		f.events[i] = gen.Event(0.9)
	}
	return f
}

// assertOracleDeliveredSets compares every consumer's delivered set with
// a brute-force oracle that knows nothing of summaries: the live
// subscriptions × Subscription.Matches over the published events. It
// returns the number of deliveries the oracle expects.
func (f *stressFixture) assertOracleDeliveredSets(t *testing.T) int {
	t.Helper()
	total := 0
	for i, c := range f.collectors {
		var want []string
		for _, ev := range f.events {
			if f.rawSubs[i].Matches(ev) {
				want = append(want, ev.Format(f.schema))
			}
		}
		c.mu.Lock()
		got := slices.Clone(c.events)
		c.mu.Unlock()
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("subscription %d: delivered %d events, oracle %d\n got: %v\nwant: %v",
				i, len(got), len(want), got, want)
		}
		total += len(want)
	}
	return total
}

// assertCleanRun checks the loss counters and the watchdog invariants.
func (f *stressFixture) assertCleanRun(t *testing.T) {
	t.Helper()
	st := f.net.Stats()
	if st.TotalDropped() != 0 || st.TotalErrors() != 0 {
		t.Fatalf("loss counters non-zero: %+v", st)
	}
	if vs := f.net.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("watchdog violations: %v", vs)
	}
}

// TestBatchedPipelineEquivalence is the event pipeline's differential:
// owner-verified delivered sets against the brute-force oracle, once with
// a Flush per event (every run has length one) and once with all 512
// events in flight behind a paused origin (full runs, coalesced deliver
// payloads). Run length is the only thing the engine varies by itself, so
// these are the two ends of what it can do.
func TestBatchedPipelineEquivalence(t *testing.T) {
	const nEvents = 512
	for _, tp := range []struct {
		name string
		g    func() *topology.Graph
	}{
		{"CW24", topology.CW24},
		{"Figure7Tree", topology.Figure7Tree},
	} {
		t.Run(tp.name+"/flush-per-event", func(t *testing.T) {
			g := tp.g()
			f := newPipelineFixture(t, g, 3*g.Len(), 0, nEvents)
			if _, err := f.net.Propagate(); err != nil {
				t.Fatal(err)
			}
			for i, ev := range f.events {
				if err := f.net.Publish(topology.NodeID(i%f.net.Len()), ev); err != nil {
					t.Fatal(err)
				}
				f.net.Flush()
			}
			if f.assertOracleDeliveredSets(t) == 0 {
				t.Fatal("oracle expects no deliveries; the differential is vacuous")
			}
			f.assertCleanRun(t)
			// Runs of one never coalesce: one payload per (event, owner).
			sends := f.net.Metrics().Counter("deliver_sends").Value()
			if msgs := f.net.Stats().Messages[netsim.KindDeliver]; msgs != sends {
				t.Fatalf("%d deliver payloads for %d deliver sends; runs of one must not coalesce", msgs, sends)
			}
		})
		t.Run(tp.name+"/512-in-flight", func(t *testing.T) {
			g := tp.g()
			f := newPipelineFixture(t, g, 3*g.Len(), 0, nEvents)
			if _, err := f.net.Propagate(); err != nil {
				t.Fatal(err)
			}
			// Park the whole stream at one origin, then release it at once:
			// the origin's handler drains it in full runs.
			const origin = 1
			if err := f.net.Faults().Pause(origin); err != nil {
				t.Fatal(err)
			}
			for _, ev := range f.events {
				if err := f.net.Publish(origin, ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.net.Faults().Resume(origin); err != nil {
				t.Fatal(err)
			}
			f.net.Flush()
			if f.assertOracleDeliveredSets(t) == 0 {
				t.Fatal("oracle expects no deliveries; the differential is vacuous")
			}
			f.assertCleanRun(t)
			// Multi-event runs show on the wire: fewer deliver payloads
			// than (event, owner) sends.
			sends := f.net.Metrics().Counter("deliver_sends").Value()
			if msgs := f.net.Stats().Messages[netsim.KindDeliver]; msgs >= sends {
				t.Fatalf("%d deliver payloads for %d deliver sends; no run coalesced, so no multi-event run was exercised", msgs, sends)
			}
		})
	}
}

// TestMixedRunKeepsArrivalOrder pins the traced-event rule: a traced
// event inside a drained batch is a run of its own, routed in its place —
// not ahead of the untraced events that arrived before it.
func TestMixedRunKeepsArrivalOrder(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Star(2), s)
	// A match-all subscriber at broker 1, never propagated: broker 0 knows
	// nothing of it, so it forwards every event to broker 1, where the
	// delivery order is the arrival order.
	sub, err := schema.ParseSubscription(s, `price > 0`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := net.Subscribe(1, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	var msgs []netsim.Message
	var want []string
	for i, text := range []string{"price=1", "price=2", "price=3"} {
		ev, err := schema.ParseEvent(s, text)
		if err != nil {
			t.Fatal(err)
		}
		var traceID uint64
		if i == 1 {
			traceID = 77
			net.tracer.begin(traceID, 0, text)
		}
		m := newEventMsg(ev, 2, traceID)
		msgs = append(msgs, netsim.Message{From: 0, To: 0, Kind: netsim.KindEvent, Body: m, Size: eventMsgSize(m)})
		want = append(want, ev.Format(s))
	}
	// One drained batch [untraced, traced, untraced] at broker 0. Nothing
	// else is addressed to broker 0, so its handler goroutine is idle and
	// the test may stand in for it.
	net.handleBatch(0, msgs)
	net.Flush()

	c.mu.Lock()
	got := slices.Clone(c.events)
	c.mu.Unlock()
	if !slices.Equal(got, want) {
		t.Fatalf("broker 1 saw %v, want arrival order %v", got, want)
	}
	traces := net.Traces()
	if len(traces) != 1 || !slices.Equal(traces[0].Path, []int{0, 1}) {
		t.Fatalf("traced event's path = %+v, want one trace over [0 1]", traces)
	}
	if got := net.Metrics().Counter("events_routed").Value(); got != 6 {
		t.Fatalf("events_routed = %d, want 6 (3 events × 2 hops)", got)
	}
}

// TestBatchedPipelineRaceSoak is the -race soak of the one event path:
// concurrent publishers × subscription churn × propagation periods, with
// the hub's merged summary large and a backlog parked in front of it, so
// long runs match against snapshots rebuilt under churn while everything
// else races (events name 8 of 10 attributes, so every match is cut to
// eligible runs). Then exact delivery for the stable subscriptions and zero
// watchdog violations.
func TestBatchedPipelineRaceSoak(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const publishers, perPublisher, propagateRounds, backlog = 4, 40, 3, 128
	// The hub's own subscriptions alone make its merged summary large.
	const hubSubs = 8192
	f := newPipelineFixture(t, topology.CW24(), 72, hubSubs, backlog+publishers*perPublisher)
	if _, err := f.net.Propagate(); err != nil {
		t.Fatal(err)
	}
	hub := f.net.order.Nodes()[0]
	if got := f.net.Broker(hub).Stats().MergedSummarySubs; got < hubSubs {
		t.Fatalf("hub merged summary holds %d subscriptions, want ≥ %d", got, hubSubs)
	}

	// Park a backlog in front of the hub; it is released into the race.
	if err := f.net.Faults().Pause(hub); err != nil {
		t.Fatal(err)
	}
	for _, ev := range f.events[:backlog] {
		if err := f.net.Publish(hub, ev); err != nil {
			t.Fatal(err)
		}
	}

	// Churn subscriptions are generated up front (the generator's rng is
	// single-threaded) and live only inside the churn goroutine; they are
	// subscribed with a throwaway collector and removed again, so they
	// never affect the stable fixture's exact-delivery assertion.
	gen, err := workload.NewGenerator(workload.Config{
		NumAttrs: 10, ArithFraction: 0.4, AttrsPerSub: 5, AttrsPerEvent: 5,
		Subsumption: 0.5, NumRanges: 2, NumPatterns: 2, StringLen: 10, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn := gen.Subscriptions(32)

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				idx := backlog + p*perPublisher + i
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
		var junk collector
		for i, sub := range churn {
			id, err := f.net.Subscribe(topology.NodeID(i%f.net.Len()), sub, junk.deliver(f.schema))
			if err != nil {
				t.Errorf("churn subscribe %d: %v", i, err)
				return
			}
			if err := f.net.Unsubscribe(id); err != nil {
				t.Errorf("churn unsubscribe %d: %v", i, err)
				return
			}
		}
	}()
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
	if err := f.net.Faults().Resume(hub); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	f.net.Flush()

	f.assertExactDeliveries(t)
	f.assertCleanRun(t)
}

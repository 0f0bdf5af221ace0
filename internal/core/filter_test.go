package core

import (
	"sync"
	"testing"

	"fmt"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// TestFilterSubsumedDeltasCorrectness: with the Section 6 combination on,
// a subscription subsumed by an earlier one at the same broker still
// receives every matching event — routed via the subsuming subscription's
// summary entry, delivered by the owner's exact re-match.
func TestFilterSubsumedDeltasCorrectness(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	net, err := New(Config{
		Topology:             topology.Figure7Tree(),
		Schema:               s,
		Mode:                 interval.Lossy,
		FilterSubsumedDeltas: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	wide, _ := schema.ParseSubscription(s, `price > 5`)
	narrow, _ := schema.ParseSubscription(s, `price > 8 && price < 9`) // subsumed by wide
	var wideC, narrowC collector
	if _, err := net.Subscribe(7, wide, wideC.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Subscribe(7, narrow, narrowC.deliver(s)); err != nil {
		t.Fatal(err)
	}
	st := net.Broker(7).Stats()
	if st.FilteredSubs != 1 {
		t.Fatalf("FilteredSubs = %d, want 1 (narrow kept out of the delta)", st.FilteredSubs)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `price=8.5`)
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if wideC.count() != 1 || narrowC.count() != 1 {
		t.Fatalf("deliveries = wide %d / narrow %d, want 1/1", wideC.count(), narrowC.count())
	}
	// A non-matching event for the narrow subscription still only reaches
	// the wide one.
	ev2, _ := schema.ParseEvent(s, `price=20`)
	if err := net.Publish(12, ev2); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if wideC.count() != 2 || narrowC.count() != 1 {
		t.Fatalf("deliveries = wide %d / narrow %d, want 2/1", wideC.count(), narrowC.count())
	}
}

// TestFilterSubsumedDeltasSavesBandwidth: under an anchored workload the
// filtered network moves fewer summary bytes with identical deliveries.
func TestFilterSubsumedDeltasSavesBandwidth(t *testing.T) {
	gen := func() *workload.Generator {
		g, err := workload.NewGenerator(workload.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	run := func(filter bool) (int64, map[string]int) {
		g := gen()
		s := g.Schema()
		net, err := New(Config{
			Topology:             topology.CW24(),
			Schema:               s,
			Mode:                 interval.Lossy,
			FilterSubsumedDeltas: filter,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		var mu sync.Mutex
		counts := make(map[string]int)
		for i := 0; i < 240; i++ {
			sub := g.AnchoredSubscription(0.8)
			// Deliveries are keyed by (broker, subscription text) so the
			// two runs are comparable.
			key := fmt.Sprintf("%d|%s", i%24, sub.Format(s))
			if _, err := net.Subscribe(topology.NodeID(i%24), sub, func(_ subid.ID, ev *schema.Event) {
				mu.Lock()
				counts[key]++
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.Propagate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			ev := g.Event(0.9)
			if err := net.Publish(topology.NodeID(i%24), ev); err != nil {
				t.Fatal(err)
			}
		}
		net.Flush()
		return net.Stats().Bytes[netsim.KindSummary], counts
	}
	plainBytes, plainCounts := run(false)
	filteredBytes, filteredCounts := run(true)
	if filteredBytes >= plainBytes {
		t.Fatalf("filtered %d bytes !< plain %d bytes", filteredBytes, plainBytes)
	}
	// Identical delivery multiset.
	if len(plainCounts) != len(filteredCounts) {
		t.Fatalf("delivery keys differ: %d vs %d", len(plainCounts), len(filteredCounts))
	}
	for k, v := range plainCounts {
		if filteredCounts[k] != v {
			t.Fatalf("deliveries for %q: plain %d filtered %d", k, v, filteredCounts[k])
		}
	}
}

// TestFilterPromotedSubscriptionKeepsDelivery covers the gap after a
// subsuming subscription leaves: the subscription it was covering is
// promoted into the next delta, but until that period runs remote brokers
// still hold only the dead anchor's rows and name its id. The owner has
// no filter-skipped subscription left to tell it so; the dead name on a
// filtering broker does, and it re-matches everything it owns.
func TestFilterPromotedSubscriptionKeepsDelivery(t *testing.T) {
	s := stockSchema(t)
	net, err := New(Config{
		Topology:             topology.Star(3),
		Schema:               s,
		Mode:                 interval.Lossy,
		FilterSubsumedDeltas: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var wideC, narrowC collector
	wideID, err := net.Subscribe(starOwner, mustSub(t, s, `price > 5`), wideC.deliver(s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Subscribe(starOwner, mustSub(t, s, `price > 8 && price < 9`), narrowC.deliver(s)); err != nil {
		t.Fatal(err)
	}
	mustPropagate(t, net)
	publishFlush(t, net, starOther, "price=8.5")
	if wideC.count() != 1 || narrowC.count() != 1 {
		t.Fatalf("before the anchor left: wide %d, narrow %d, want 1 and 1", wideC.count(), narrowC.count())
	}
	if err := net.Unsubscribe(wideID); err != nil {
		t.Fatal(err)
	}
	if st := net.Broker(starOwner).Stats(); st.FilteredSubs != 0 {
		t.Fatalf("FilteredSubs = %d after the anchor left, want 0 (narrow promoted)", st.FilteredSubs)
	}
	publishFlush(t, net, starOther, "price=8.5")
	if wideC.count() != 1 || narrowC.count() != 2 {
		t.Fatalf("between the anchor leaving and the next period: wide %d, narrow %d, want 1 and 2", wideC.count(), narrowC.count())
	}
	mustPropagate(t, net)
	publishFlush(t, net, starOther, "price=8.5")
	if wideC.count() != 1 || narrowC.count() != 3 {
		t.Fatalf("after the next period: wide %d, narrow %d, want 1 and 3", wideC.count(), narrowC.count())
	}
}

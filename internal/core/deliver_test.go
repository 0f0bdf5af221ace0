package core

import (
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// The tests here pin what a deliver record's named ids may and may not
// do. They run on a three-broker star — hub 0, leaves 1 and 2 — where
// one Propagate gives the hub every leaf's rows and the leaves nothing:
// an event published at leaf 2 walks to the hub, which matches, names
// the owner's ids in a deliver record, and ends the walk.
const (
	starHub   = topology.NodeID(0)
	starOwner = topology.NodeID(1)
	starOther = topology.NodeID(2)
)

func mustSub(t *testing.T, s *schema.Schema, text string) *schema.Subscription {
	t.Helper()
	sub, err := schema.ParseSubscription(s, text)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func mustEvent(t *testing.T, s *schema.Schema, text string) *schema.Event {
	t.Helper()
	ev, err := schema.ParseEvent(s, text)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// publishFlush publishes one event and waits for the network to go quiet.
func publishFlush(t *testing.T, net *Network, at topology.NodeID, text string) {
	t.Helper()
	if err := net.Publish(at, mustEvent(t, net.Schema(), text)); err != nil {
		t.Fatal(err)
	}
	net.Flush()
}

func mustPropagate(t *testing.T, net *Network) {
	t.Helper()
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
}

// TestNamedIDRetiredBeforeDelivery: soundness never rests on the sender.
// A deliver record sits parked in front of its owner while the named
// subscription is unsubscribed — and then while its local id is handed to
// another subscription after a full sync. Either way the owner looks the
// id up in its current raw subscriptions: the dead consumer hears
// nothing, and the id's new holder hears the event only if its own
// subscription matches.
func TestNamedIDRetiredBeforeDelivery(t *testing.T) {
	s := stockSchema(t)
	net, err := New(Config{Topology: topology.Star(3), Schema: s, Mode: interval.Lossy, FullSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	var dying, staying, heirMiss, heirHit collector
	dyingID, err := net.Subscribe(starOwner, mustSub(t, s, `price > 100`), dying.deliver(s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Subscribe(starOwner, mustSub(t, s, `price > 50`), staying.deliver(s)); err != nil {
		t.Fatal(err)
	}
	mustPropagate(t, net)

	park := func(text string) {
		t.Helper()
		if err := net.Faults().Pause(starOwner); err != nil {
			t.Fatal(err)
		}
		publishFlush(t, net, starOther, text)
		if _, parked := net.Faults().Paused(starOwner); parked != 1 {
			t.Fatalf("%d messages parked at the owner, want the one deliver record", parked)
		}
	}
	release := func() {
		t.Helper()
		if err := net.Faults().Resume(starOwner); err != nil {
			t.Fatal(err)
		}
		net.Flush()
	}

	// Unsubscribed between match and delivery.
	park("price=200")
	if err := net.Unsubscribe(dyingID); err != nil {
		t.Fatal(err)
	}
	release()
	if dying.count() != 0 || staying.count() != 1 {
		t.Fatalf("after unsubscribe: dead consumer got %d, live one %d, want 0 and 1", dying.count(), staying.count())
	}

	// Reused between match and delivery. The hub still holds the dead
	// subscription's rows (no period has run since), so it names the id
	// again; the full sync then lifts the fence and the id goes to a
	// subscription the event does not match.
	park("price=300")
	mustPropagate(t, net)
	if err := net.Broker(starOwner).Restore(dyingID.Local, mustSub(t, s, `price < 10`), heirMiss.deliver(s)); err != nil {
		t.Fatalf("reuse of the retired id after a full sync: %v", err)
	}
	release()
	if dying.count() != 0 || heirMiss.count() != 0 || staying.count() != 2 {
		t.Fatalf("after reuse: dead %d, non-matching heir %d, live %d, want 0, 0 and 2",
			dying.count(), heirMiss.count(), staying.count())
	}

	// The same again with an heir the event does match: delivering to it
	// is sound — the current raw subscription matches — and happens once.
	mustPropagate(t, net) // the hub learns the first heir's rows
	park("price=5")
	if err := net.Unsubscribe(subid.ID{Broker: subid.BrokerID(starOwner), Local: dyingID.Local}); err != nil {
		t.Fatal(err)
	}
	mustPropagate(t, net)
	if err := net.Broker(starOwner).Restore(dyingID.Local, mustSub(t, s, `price < 20`), heirHit.deliver(s)); err != nil {
		t.Fatal(err)
	}
	release()
	if heirMiss.count() != 0 || heirHit.count() != 1 || dying.count() != 0 || staying.count() != 2 {
		t.Fatalf("matching heir: first heir %d, second %d, dead %d, live %d, want 0, 1, 0 and 2",
			heirMiss.count(), heirHit.count(), dying.count(), staying.count())
	}
	if st := net.Stats(); st.TotalDropped() != 0 || st.TotalErrors() != 0 {
		t.Fatalf("loss counters non-zero: %+v", st)
	}
}

// TestRemoteFalsePositiveChargesSenderNamedRows sends the two constructed
// lossy-fold false positives of the attribution acceptance tests hub →
// owner and checks the charge is the exact (attribute, class, owner)
// triple — charged once, from the row the hub's match named. A decoy the
// owner registered after the last period folds into the same row in the
// owner's own view; an owner that re-ran Algorithm 1 over that view would
// charge it too.
func TestRemoteFalsePositiveChargesSenderNamedRows(t *testing.T) {
	for _, tc := range []struct {
		name, cover, folded, decoy, event string
		attr, class                       string
	}{
		{"range covers eq point",
			`symbol = AAA && price > 100`, `symbol = OTE && price = 150`, `symbol = OTE && price = 170`,
			"symbol=OTE price=200", "price", "eq"},
		{"prefix covers eq string",
			`symbol >* OT && price < 10`, `symbol = OTE && price > 100`, `symbol = OTA && price > 100`,
			"symbol=OTX price=200", "symbol", "eq"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := stockSchema(t)
			net := newNetwork(t, topology.Star(3), s)
			var c collector
			for _, text := range []string{tc.cover, tc.folded} {
				if _, err := net.Subscribe(starOwner, mustSub(t, s, text), c.deliver(s)); err != nil {
					t.Fatal(err)
				}
			}
			mustPropagate(t, net)
			if _, err := net.Subscribe(starOwner, mustSub(t, s, tc.decoy), c.deliver(s)); err != nil {
				t.Fatal(err)
			}
			publishFlush(t, net, starOther, tc.event)
			if c.count() != 0 {
				t.Fatalf("false positive delivered %d times", c.count())
			}
			if sends := net.Metrics().Counter("deliver_sends").Value(); sends != 1 {
				t.Fatalf("deliver sends = %d, want 1 (hub → owner)", sends)
			}
			rep := net.attrib.Report(0)
			if rep.Total != 1 || len(rep.TopK) != 1 {
				t.Fatalf("charges: total %d, %+v; want the one row the hub named", rep.Total, rep.TopK)
			}
			if got := rep.TopK[0]; got.Attr != tc.attr || got.Class != tc.class || got.Owner != int(starOwner) || got.Count != 1 {
				t.Fatalf("charged %+v, want (%s, %s, owner %d) once", got, tc.attr, tc.class, starOwner)
			}
		})
	}
}

// TestVisibilityIsPeriodGranular pins the visibility rule: a subscription
// added at its owner after the last Propagate is delivered events
// published at the owner — the local hop matches the owner's own view —
// and is not delivered remote events that reach the owner on behalf of
// another subscription, because the sender cannot name an id it has not
// merged. The next period makes it visible everywhere.
func TestVisibilityIsPeriodGranular(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Star(3), s)
	var old, fresh collector
	if _, err := net.Subscribe(starOwner, mustSub(t, s, `price > 5`), old.deliver(s)); err != nil {
		t.Fatal(err)
	}
	mustPropagate(t, net)
	if _, err := net.Subscribe(starOwner, mustSub(t, s, `price > 1`), fresh.deliver(s)); err != nil {
		t.Fatal(err)
	}
	publishFlush(t, net, starOwner, "price=10")
	if old.count() != 1 || fresh.count() != 1 {
		t.Fatalf("published at the owner: old %d, fresh %d, want 1 and 1", old.count(), fresh.count())
	}
	for _, at := range []topology.NodeID{starOther, starHub} {
		publishFlush(t, net, at, "price=10")
	}
	if old.count() != 3 || fresh.count() != 1 {
		t.Fatalf("published remotely before the period: old %d, fresh %d, want 3 and 1", old.count(), fresh.count())
	}
	mustPropagate(t, net)
	publishFlush(t, net, starOther, "price=10")
	if old.count() != 4 || fresh.count() != 2 {
		t.Fatalf("published remotely after the period: old %d, fresh %d, want 4 and 2", old.count(), fresh.count())
	}
}

// TestOwnerBeyondTheOverlay: a merged view names an owner the overlay
// lacks only when a peer's summary was corrupt. The walk hands that owner
// nothing — no deliver record, no bit in the delivered set it forwards,
// which the next hop would refuse — so the event still reaches every
// matching consumer, and no error is counted.
func TestOwnerBeyondTheOverlay(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Star(3), s)
	var c collector
	for _, at := range []topology.NodeID{starOwner, starOther} {
		if _, err := net.Subscribe(at, mustSub(t, s, `price > 100`), c.deliver(s)); err != nil {
			t.Fatal(err)
		}
	}
	stray := summary.New(s, interval.Lossy)
	if err := stray.Insert(subid.ID{Broker: 1 << 20}, mustSub(t, s, `price > 100`)); err != nil {
		t.Fatal(err)
	}
	if err := net.Broker(starOwner).MergeEncodedSummary(stray.Encode(nil), nil); err != nil {
		t.Fatal(err)
	}
	// No period has run, so the walk leaves the owner for the hub and the
	// other leaf, carrying the delivered set the owner's match built.
	if err := net.Publish(starOwner, mustEvent(t, s, "symbol=OTE price=150")); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if st := net.Stats(); c.count() != 2 || st.TotalErrors() != 0 || st.TotalDropped() != 0 {
		t.Fatalf("%d deliveries, errors %v, dropped %v; want both consumers and no loss",
			c.count(), st.DecodeErrors, st.Dropped)
	}
}

package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// TestSnapshotRoundTrip persists a network with churned subscriptions and
// restores it: local ids survive, deliveries resume exactly after one
// propagation period.
func TestSnapshotRoundTrip(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	g := topology.Figure7Tree()
	net := newNetwork(t, g, s)

	var ids []subid.ID
	var subs []*schema.Subscription
	for i := 0; i < 40; i++ {
		sub := gen.Subscription()
		id, err := net.Subscribe(topology.NodeID(i%g.Len()), sub, func(subid.ID, *schema.Event) {})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		subs = append(subs, sub)
	}
	// Churn a hole into the local-id space.
	if err := net.Unsubscribe(ids[5]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := net.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restoredLog := &collector{}
	restored, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), Config{Topology: g},
		func(id subid.ID, sub *schema.Subscription) broker.DeliveryFunc {
			return restoredLog.deliver(s)
		})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	// Local ids survive; the unsubscribed one stays gone; fresh subscribes
	// do not collide with restored ids.
	for i, id := range ids {
		want := i != 5
		if got := restored.Broker(topology.NodeID(int(id.Broker))).NumSubscriptions() > 0; !got && want {
			t.Fatalf("broker %d lost its subscriptions", id.Broker)
		}
	}
	freshID, err := restored.Subscribe(topology.NodeID(ids[0].Broker), subs[0], func(subid.ID, *schema.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id.Broker == freshID.Broker && id.Local == freshID.Local {
			t.Fatalf("fresh id %v collides with restored id", freshID)
		}
	}

	// Recovery: one propagation period rebuilds coverage; deliveries are
	// identical to the original network's.
	if _, err := restored.Propagate(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	events := make([]*schema.Event, 80)
	for i := range events {
		events[i] = gen.Event(0.9)
	}
	want := 0
	for i, sub := range subs {
		if i == 5 {
			continue
		}
		for _, ev := range events {
			if sub.Matches(ev) {
				want++
			}
		}
	}
	for i, ev := range events {
		if err := restored.Publish(topology.NodeID(i%g.Len()), ev); err != nil {
			t.Fatal(err)
		}
	}
	restored.Flush()
	// The fresh duplicate of subs[0] also receives its matches.
	for _, ev := range events {
		if subs[0].Matches(ev) {
			want++
		}
	}
	if got := restoredLog.count(); got != want {
		t.Fatalf("restored deliveries = %d, want %d", got, want)
	}
}

// TestLongestStringCarried: every codec a subscription constant crosses
// (the summary payload of a period, the snapshot) writes its length in 16
// bits. A 65 535-byte constant subscribed at broker 3 of CW24 propagates
// with no payload refused, reaches its event from the far side of the
// overlay, and survives a snapshot; a 65 536-byte one is refused by the
// parser, before any codec could cut its length.
func TestLongestStringCarried(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	longest := strings.Repeat("X", math.MaxUint16)
	if _, err := schema.ParseSubscription(s, "symbol = "+longest+"X"); err == nil {
		t.Fatalf("a constant of %d bytes parsed", math.MaxUint16+1)
	}
	sub, err := schema.ParseSubscription(s, "symbol = "+longest+" && price > 1")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, "symbol="+longest+" price=2")
	if err != nil {
		t.Fatal(err)
	}
	g := topology.CW24()
	// deliveries publishes ev at broker 0 after two periods and returns how
	// many deliveries it made, failing on any message refused on the way.
	deliveries := func(net *Network, c *collector) int {
		t.Helper()
		for period := 0; period < 2; period++ {
			if _, err := net.Propagate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Publish(0, ev); err != nil {
			t.Fatal(err)
		}
		net.Flush()
		for kind, n := range net.Stats().DecodeErrors {
			if n != 0 {
				t.Fatalf("%d %v messages failed to decode", n, kind)
			}
		}
		return c.count()
	}
	var c collector
	net := newNetwork(t, g, s)
	if _, err := net.Subscribe(3, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if got := deliveries(net, &c); got != 1 {
		t.Fatalf("%d deliveries of the event, want 1", got)
	}
	var buf bytes.Buffer
	if err := net.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var restoredLog collector
	restored, err := LoadSnapshot(&buf, Config{Topology: g},
		func(subid.ID, *schema.Subscription) broker.DeliveryFunc { return restoredLog.deliver(s) })
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := deliveries(restored, &restoredLog); got != 1 {
		t.Fatalf("restored network: %d deliveries of the event, want 1", got)
	}
}

func TestSnapshotCorruption(t *testing.T) {
	s := schema.MustNew(schema.Attribute{Name: "x", Type: schema.TypeFloat})
	g := topology.Ring(3)
	net := newNetwork(t, g, s)
	sub, _ := schema.ParseSubscription(s, `x > 1`)
	if _, err := net.Subscribe(0, sub, func(subid.ID, *schema.Event) {}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	factory := func(subid.ID, *schema.Subscription) broker.DeliveryFunc {
		return func(subid.ID, *schema.Event) {}
	}
	if _, err := LoadSnapshot(bytes.NewReader(nil), Config{Topology: g}, factory); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := LoadSnapshot(bytes.NewReader(data[:cut]), Config{Topology: g}, factory); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := LoadSnapshot(bytes.NewReader(bad), Config{Topology: g}, factory); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := LoadSnapshot(bytes.NewReader(data), Config{Topology: topology.Ring(5)}, factory); err == nil {
		t.Fatal("topology size mismatch accepted")
	}
	if _, err := LoadSnapshot(bytes.NewReader(data), Config{Topology: g}, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := LoadSnapshot(bytes.NewReader(append(data, 0xEE)), Config{Topology: g}, factory); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

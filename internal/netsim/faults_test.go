package netsim

import (
	"sync/atomic"
	"testing"

	"github.com/subsum/subsum/internal/topology"
)

// faultBus builds an n-node bus whose handlers count per-node arrivals.
func faultBus(t *testing.T, n int) (*Bus, []*atomic.Int64) {
	t.Helper()
	b := NewBus(n)
	t.Cleanup(b.Close)
	got := make([]*atomic.Int64, n)
	for i := range got {
		got[i] = &atomic.Int64{}
		c := got[i]
		b.Start(topology.NodeID(i), func(Message) { c.Add(1) })
	}
	return b, got
}

// TestPartitionSymmetricAndHeal: a partition drops traffic crossing the
// cut in both directions, leaves intra-side traffic alone, and Heal
// restores full connectivity.
func TestPartitionSymmetricAndHeal(t *testing.T) {
	b, got := faultBus(t, 4)
	if err := b.Faults().Partition([]topology.NodeID{0, 1}, []topology.NodeID{2, 3}); err != nil {
		t.Fatal(err)
	}
	send := func(from, to topology.NodeID) {
		if err := b.Send(Message{From: from, To: to, Kind: KindEvent, Body: []byte("x"), Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 2) // crosses A→B: dropped
	send(3, 1) // crosses B→A: dropped
	send(0, 1) // within A: delivered
	send(2, 3) // within B: delivered
	b.Quiesce()
	if got[2].Load() != 0 || got[1].Load() != 1 || got[3].Load() != 1 {
		t.Fatalf("partition leaked: arrivals = [%d %d %d %d]",
			got[0].Load(), got[1].Load(), got[2].Load(), got[3].Load())
	}
	s := b.Stats()
	if s.Dropped[KindEvent] != 2 || s.DroppedBytes[KindEvent] != 2 {
		t.Fatalf("dropped accounting = %+v", s)
	}
	if s.Messages[KindEvent] != 2 {
		t.Fatalf("delivered accounting = %+v", s)
	}

	b.Faults().Heal()
	send(0, 2)
	send(3, 1)
	b.Quiesce()
	if got[2].Load() != 1 || got[1].Load() != 2 {
		t.Fatal("heal did not restore cross-partition delivery")
	}
	if s := b.Stats(); s.Dropped[KindEvent] != 2 {
		t.Fatalf("healed bus still dropping: %+v", s)
	}
}

// TestPartitionValidation: empty, overlapping, and out-of-range sides
// are rejected before any state changes.
func TestPartitionValidation(t *testing.T) {
	b, _ := faultBus(t, 3)
	if err := b.Faults().Partition(nil, []topology.NodeID{1}); err == nil {
		t.Fatal("empty side accepted")
	}
	if err := b.Faults().Partition([]topology.NodeID{0, 1}, []topology.NodeID{1}); err == nil {
		t.Fatal("overlapping sides accepted")
	}
	if err := b.Faults().Partition([]topology.NodeID{0}, []topology.NodeID{7}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if b.hasFault.Load() {
		t.Fatal("rejected partition left the fault gate on")
	}
}

// TestPartitionsStack: two cuts compose; healing removes both at once.
func TestPartitionsStack(t *testing.T) {
	b, got := faultBus(t, 3)
	if err := b.Faults().Partition([]topology.NodeID{0}, []topology.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Faults().Partition([]topology.NodeID{0}, []topology.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	_ = b.Send(Message{From: 0, To: 1, Kind: KindEvent})
	_ = b.Send(Message{From: 0, To: 2, Kind: KindEvent})
	_ = b.Send(Message{From: 1, To: 2, Kind: KindEvent}) // severed by neither cut
	b.Quiesce()
	if got[1].Load() != 0 || got[2].Load() != 1 {
		t.Fatalf("stacked cuts wrong: arrivals = [%d %d %d]", got[0].Load(), got[1].Load(), got[2].Load())
	}
}

// TestPerKindLoss: a rate-1 rule drops every message of its kind and no
// other kind; removing the rule stops the loss.
func TestPerKindLoss(t *testing.T) {
	b, got := faultBus(t, 2)
	b.Faults().SetLoss(KindSummary, 1.0, 42)
	for i := 0; i < 5; i++ {
		_ = b.Send(Message{From: 0, To: 1, Kind: KindSummary, Body: []byte("s"), Size: 1})
		_ = b.Send(Message{From: 0, To: 1, Kind: KindEvent, Body: []byte("e"), Size: 1})
	}
	b.Quiesce()
	s := b.Stats()
	if s.Dropped[KindSummary] != 5 || s.Dropped[KindEvent] != 0 {
		t.Fatalf("loss rule leaked across kinds: %+v", s.Dropped)
	}
	if got[1].Load() != 5 {
		t.Fatalf("event deliveries = %d, want 5", got[1].Load())
	}
	b.Faults().SetLoss(KindSummary, 0, 0)
	if b.hasFault.Load() {
		t.Fatal("clearing the only loss rule left the fault gate on")
	}
	_ = b.Send(Message{From: 0, To: 1, Kind: KindSummary, Body: []byte("s"), Size: 1})
	b.Quiesce()
	if s := b.Stats(); s.Dropped[KindSummary] != 5 {
		t.Fatalf("summary dropped after rule removed: %+v", s.Dropped)
	}
}

// TestFractionalLossDeterministic: the same seed reproduces the same
// drop count.
func TestFractionalLossDeterministic(t *testing.T) {
	run := func() int64 {
		b, _ := faultBus(t, 2)
		b.Faults().SetLoss(KindEvent, 0.5, 99)
		for i := 0; i < 200; i++ {
			_ = b.Send(Message{From: 0, To: 1, Kind: KindEvent})
		}
		b.Quiesce()
		return b.Stats().Dropped[KindEvent]
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("seeded loss not reproducible: %d vs %d", first, second)
	}
	if first == 0 || first == 200 {
		t.Fatalf("rate-0.5 loss dropped %d of 200", first)
	}
}

// TestPauseResume: messages to a paused broker are parked (counted as
// sent, not dropped, not in-flight) and delivered in order on Resume.
func TestPauseResume(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	var order []byte
	done := make(chan struct{}, 16)
	b.Start(0, func(Message) {})
	b.Start(1, func(m Message) {
		order = append(order, m.Body.([]byte)[0])
		done <- struct{}{}
	})
	if err := b.Faults().Pause(1); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 3; i++ {
		if err := b.Send(Message{From: 0, To: 1, Kind: KindDeliver, Body: []byte{i}, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Parked messages must not block Quiesce: the paused broker is a slow
	// link, not a lost one.
	b.Quiesce()
	if paused, parked := b.Faults().Paused(1); !paused || parked != 3 {
		t.Fatalf("paused=%v parked=%d, want true/3", paused, parked)
	}
	s := b.Stats()
	if s.Messages[KindDeliver] != 3 || s.Dropped[KindDeliver] != 0 {
		t.Fatalf("parked accounting = %+v", s)
	}
	if len(order) != 0 {
		t.Fatalf("paused broker handled %d messages", len(order))
	}
	if err := b.Faults().Resume(1); err != nil {
		t.Fatal(err)
	}
	b.Quiesce()
	for i := 0; i < 3; i++ {
		<-done
	}
	if string(order) != "\x00\x01\x02" {
		t.Fatalf("resume order = %v", order)
	}
	if paused, _ := b.Faults().Paused(1); paused {
		t.Fatal("broker still paused after Resume")
	}
}

// TestLayersCompose: the custom drop hook, a partition, and a loss rule
// are independent layers — clearing one leaves the others active.
func TestLayersCompose(t *testing.T) {
	b, got := faultBus(t, 3)
	var hookDrops atomic.Int64
	b.SetDropFunc(func(m Message) bool {
		if m.Kind == KindControl {
			hookDrops.Add(1)
			return true
		}
		return false
	})
	if err := b.Faults().Partition([]topology.NodeID{0}, []topology.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	b.Faults().SetLoss(KindSummary, 1.0, 7)

	_ = b.Send(Message{From: 0, To: 1, Kind: KindControl}) // custom layer
	_ = b.Send(Message{From: 0, To: 2, Kind: KindEvent})   // partition layer
	_ = b.Send(Message{From: 0, To: 1, Kind: KindSummary}) // loss layer
	_ = b.Send(Message{From: 0, To: 1, Kind: KindEvent})   // clean
	b.Quiesce()
	if hookDrops.Load() != 1 {
		t.Fatalf("custom hook ran %d times, want 1", hookDrops.Load())
	}
	if got[1].Load() != 1 || got[2].Load() != 0 {
		t.Fatalf("layer composition wrong: arrivals = [%d %d %d]", got[0].Load(), got[1].Load(), got[2].Load())
	}

	// Clearing the custom hook must not heal the partition or the loss.
	b.SetDropFunc(nil)
	_ = b.Send(Message{From: 0, To: 2, Kind: KindEvent})
	_ = b.Send(Message{From: 0, To: 1, Kind: KindSummary})
	b.Quiesce()
	if got[2].Load() != 0 {
		t.Fatal("SetDropFunc(nil) healed the partition")
	}
	if s := b.Stats(); s.Dropped[KindSummary] != 2 {
		t.Fatal("SetDropFunc(nil) cleared the loss rule")
	}

	// Heal must not resurrect the (cleared) custom hook or clear loss.
	b.Faults().Heal()
	_ = b.Send(Message{From: 0, To: 2, Kind: KindEvent})
	b.Quiesce()
	if got[2].Load() != 1 {
		t.Fatal("heal did not restore the partitioned link")
	}

	b.Faults().Clear()
	if b.hasFault.Load() {
		t.Fatal("Clear left the fault gate on")
	}
}

// TestCloseReleasesParked: closing a bus with parked messages discards
// them without deadlock, and a Resume after Close delivers nothing.
func TestCloseReleasesParked(t *testing.T) {
	b := NewBus(1)
	var handled atomic.Int64
	b.Start(0, func(Message) { handled.Add(1) })
	if err := b.Faults().Pause(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Message{From: 0, To: 0, Kind: KindSummary, Body: []byte("payload"), Size: 7}); err != nil {
		t.Fatal(err)
	}
	if _, parked := b.Faults().Paused(0); parked != 1 {
		t.Fatalf("%d messages parked, want 1", parked)
	}
	b.Close()
	if err := b.Faults().Resume(0); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 0 || b.Inflight() != 0 {
		t.Fatalf("after Close: %d handled, %d in flight; want neither", handled.Load(), b.Inflight())
	}
}

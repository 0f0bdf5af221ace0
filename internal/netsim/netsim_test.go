package netsim

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/subsum/subsum/internal/topology"
)

func TestSendReceiveAndQuiesce(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	var got atomic.Int64
	b.Start(0, func(m Message) { got.Add(1) })
	b.Start(1, func(m Message) { got.Add(1) })
	for i := 0; i < 100; i++ {
		if err := b.Send(Message{From: 0, To: topology.NodeID(i % 2), Kind: KindEvent, Body: []byte("x"), Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.Quiesce()
	if got.Load() != 100 {
		t.Fatalf("handled %d of 100", got.Load())
	}
	s := b.Stats()
	if s.Messages[KindEvent] != 100 || s.Bytes[KindEvent] != 100 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalMessages() != 100 || s.TotalBytes() != 100 {
		t.Fatalf("totals = %d/%d", s.TotalMessages(), s.TotalBytes())
	}
}

// TestQuiesceCountsCascades: handlers that send more messages must keep
// Quiesce blocked until the cascade drains.
func TestQuiesceCountsCascades(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	var handled atomic.Int64
	// Node 0 forwards a chain of decreasing counters to node 1 and back.
	relay := func(m Message) {
		handled.Add(1)
		n := m.Body.([]byte)[0]
		if n == 0 {
			return
		}
		if err := b.Send(Message{From: m.To, To: m.From, Kind: KindEvent, Body: []byte{n - 1}, Size: 1}); err != nil {
			t.Error(err)
		}
	}
	b.Start(0, relay)
	b.Start(1, relay)
	if err := b.Send(Message{From: 0, To: 1, Kind: KindEvent, Body: []byte{50}, Size: 1}); err != nil {
		t.Fatal(err)
	}
	b.Quiesce()
	if handled.Load() != 51 {
		t.Fatalf("handled %d, want 51", handled.Load())
	}
}

func TestControlExcludedFromTotals(t *testing.T) {
	b := NewBus(1)
	defer b.Close()
	b.Start(0, func(Message) {})
	_ = b.Send(Message{To: 0, Kind: KindControl, Body: []byte("ctl"), Size: 3})
	_ = b.Send(Message{To: 0, Kind: KindSummary, Body: []byte("data!"), Size: 5})
	b.Quiesce()
	s := b.Stats()
	if s.TotalMessages() != 1 || s.TotalBytes() != 5 {
		t.Fatalf("totals = %d/%d", s.TotalMessages(), s.TotalBytes())
	}
	if s.Messages[KindControl] != 1 {
		t.Fatalf("control not counted separately: %+v", s)
	}
}

func TestSendValidation(t *testing.T) {
	b := NewBus(2)
	if err := b.Send(Message{To: 5}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := b.Send(Message{To: -1}); err == nil {
		t.Fatal("negative destination accepted")
	}
	b.Close()
	if err := b.Send(Message{To: 0}); err == nil {
		t.Fatal("send after close accepted")
	}
}

func TestCloseDropsBacklogWithoutDeadlock(t *testing.T) {
	b := NewBus(1)
	// No handler started: messages pile up.
	for i := 0; i < 10; i++ {
		if err := b.Send(Message{To: 0, Kind: KindEvent}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		b.Close()
		b.Quiesce() // must not block after Close drops the backlog
		close(done)
	}()
	<-done
}

func TestCloseIdempotent(t *testing.T) {
	b := NewBus(1)
	b.Start(0, func(Message) {})
	b.Close()
	b.Close()
}

func TestConcurrentSenders(t *testing.T) {
	b := NewBus(4)
	defer b.Close()
	var handled atomic.Int64
	for i := 0; i < 4; i++ {
		b.Start(topology.NodeID(i), func(Message) { handled.Add(1) })
	}
	var wg sync.WaitGroup
	const senders, each = 8, 200
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Send(Message{To: topology.NodeID((s + i) % 4), Kind: KindEvent}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	b.Quiesce()
	if handled.Load() != senders*each {
		t.Fatalf("handled %d, want %d", handled.Load(), senders*each)
	}
}

func TestKindString(t *testing.T) {
	if KindSummary.String() != "summary" || KindEvent.String() != "event" ||
		KindDeliver.String() != "deliver" || KindControl.String() != "control" {
		t.Fatal("kind names")
	}
}

func TestDropFuncFaultInjection(t *testing.T) {
	b := NewBus(1)
	defer b.Close()
	var handled atomic.Int64
	b.Start(0, func(Message) { handled.Add(1) })
	b.SetDropFunc(func(m Message) bool { return m.Kind == KindSummary })
	_ = b.Send(Message{To: 0, Kind: KindSummary, Body: []byte("drop me"), Size: 7})
	_ = b.Send(Message{To: 0, Kind: KindEvent, Body: []byte("keep me"), Size: 7})
	b.Quiesce()
	if handled.Load() != 1 {
		t.Fatalf("handled %d, want 1", handled.Load())
	}
	st := b.Stats()
	if st.Dropped[KindSummary] != 1 || st.Messages[KindSummary] != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Messages[KindEvent] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Disable and verify healing.
	b.SetDropFunc(nil)
	_ = b.Send(Message{To: 0, Kind: KindSummary})
	b.Quiesce()
	if handled.Load() != 2 {
		t.Fatalf("handled %d after healing, want 2", handled.Load())
	}
}

func TestErrorCountersAndTotals(t *testing.T) {
	b := NewBus(1)
	defer b.Close()
	b.Start(0, func(Message) {})
	b.RecordDecodeErrorAt(KindSummary, 0)
	b.RecordDecodeErrorAt(KindSummary, 0)
	b.RecordDecodeErrorAt(KindEvent, 0)
	b.RecordHandlerError(KindSummary)
	st := b.Stats()
	if st.DecodeErrors[KindSummary] != 2 || st.DecodeErrors[KindEvent] != 1 {
		t.Fatalf("decode errors = %+v", st.DecodeErrors)
	}
	if st.HandlerErrors[KindSummary] != 1 {
		t.Fatalf("handler errors = %+v", st.HandlerErrors)
	}
	if st.TotalErrors() != 4 {
		t.Fatalf("TotalErrors = %d, want 4", st.TotalErrors())
	}
	if st.TotalDropped() != 0 {
		t.Fatalf("TotalDropped = %d, want 0", st.TotalDropped())
	}
}

// TestQuiesceRacesSenders is the regression test for the quiescence
// counter: with sync.WaitGroup-based tracking, a Send from one goroutine
// racing a Quiesce on another could trip "WaitGroup misuse" (Add called
// concurrently with Wait at counter zero). The cond-based counter must
// tolerate any interleaving.
func TestQuiesceRacesSenders(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	var handled atomic.Int64
	b.Start(0, func(Message) { handled.Add(1) })
	b.Start(1, func(Message) { handled.Add(1) })
	var wg sync.WaitGroup
	const senders, each = 4, 300
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Send(Message{To: topology.NodeID(i % 2), Kind: KindEvent}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Quiesce continuously while the senders run: the counter repeatedly
	// crosses zero under concurrent Adds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			b.Quiesce()
		}
	}()
	wg.Wait()
	b.Quiesce()
	if handled.Load() != senders*each {
		t.Fatalf("handled %d, want %d", handled.Load(), senders*each)
	}
}

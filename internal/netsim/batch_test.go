package netsim

import (
	"sync"
	"testing"
)

// TestStartBatchDrainsInOrder proves the batched handler sees every
// message exactly once, in FIFO order, with batch sizes never exceeding
// the cap — and that Quiesce still accounts for whole batches.
func TestStartBatchDrainsInOrder(t *testing.T) {
	const n = 500
	b := NewBus(2)
	defer b.Close()
	var (
		mu      sync.Mutex
		seen    []byte
		batches []int
	)
	// A slow-start gate: hold the handler on its first batch so the
	// sender gets ahead and later wakeups actually drain multi-message
	// batches.
	gate := make(chan struct{})
	first := true
	b.StartBatch(1, func(ms []Message) {
		if first {
			first = false
			<-gate
		}
		mu.Lock()
		defer mu.Unlock()
		if len(ms) == 0 || len(ms) > maxBatch {
			t.Errorf("batch size %d outside (0,%d]", len(ms), maxBatch)
		}
		batches = append(batches, len(ms))
		for _, m := range ms {
			seen = append(seen, m.Body.([]byte)[0])
		}
	})
	for i := 0; i < n; i++ {
		if err := b.Send(Message{From: 0, To: 1, Kind: KindEvent, Body: []byte{byte(i)}, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	b.Quiesce()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("handled %d of %d messages", len(seen), n)
	}
	for i, v := range seen {
		if v != byte(i) {
			t.Fatalf("message %d out of order: got payload %d", i, v)
		}
	}
	multi := 0
	for _, sz := range batches {
		if sz > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-message batch drained; the batching path was never exercised")
	}
	if s := b.Stats(); s.Messages[KindEvent] != n {
		t.Fatalf("stats count %d messages, want %d", s.Messages[KindEvent], n)
	}
}

// TestMailboxKeepsOrderAcrossDrains: a pop that drains the queue keeps its
// array for the next push; FIFO order must hold through any number of
// drain-and-refill cycles, partial drains included.
func TestMailboxKeepsOrderAcrossDrains(t *testing.T) {
	m := new(mailbox)
	next, want := 0, 0
	var buf []Message
	for _, burst := range []int{1, 1, 3, maxBatch + 5, 1, 2 * maxBatch, 1} {
		for i := 0; i < burst; i++ {
			if ok, _ := m.push(Message{From: 0, To: 1, Body: []byte{byte(next)}, Size: 1}); !ok {
				t.Fatal("push on an open mailbox failed")
			}
			next++
		}
		for want < next {
			buf = m.drain(buf[:0], maxBatch)
			if len(buf) == 0 || len(buf) > maxBatch {
				t.Fatalf("drain = %d messages", len(buf))
			}
			for _, q := range buf {
				if q.Body.([]byte)[0] != byte(want) {
					t.Fatalf("popped message %d, want %d", q.Body.([]byte)[0], want)
				}
				want++
			}
		}
		if len(m.queue) != 0 || cap(m.queue) == 0 {
			t.Fatalf("after a drain: len %d cap %d, want an empty queue that kept its array", len(m.queue), cap(m.queue))
		}
		for i, q := range m.queue[:cap(m.queue)] {
			if q.Body != nil {
				t.Fatalf("drained slot %d still references a body", i)
			}
		}
	}
}

// TestMailboxSteadyStateZeroAllocs: the mailbox side of a walk's hop with
// one event in flight — push one, drain one — allocates nothing.
func TestMailboxSteadyStateZeroAllocs(t *testing.T) {
	m := new(mailbox)
	q := Message{From: 0, To: 1, Kind: KindEvent, Body: []byte{1}, Size: 1}
	buf := make([]Message, 0, 1)
	avg := testing.AllocsPerRun(1000, func() {
		m.push(q)
		buf = m.drain(buf[:0], maxBatch)
	})
	if avg != 0 {
		t.Fatalf("mailbox push+pop allocates %.2f objects per hop, want 0", avg)
	}
}

// TestHandOffZeroAllocs: on a started two-broker bus, a send from inside
// broker 0's handler to idle broker 1 goes through the hand-off slot of the
// worker running broker 0 — broker 1 runs next on that worker, with no
// wake-up — and the hop allocates nothing. Each measured round is an
// outside send to broker 0, that hop, and a Quiesce.
func TestHandOffZeroAllocs(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	var handedOff, reached int
	b.Start(0, func(Message) {
		_ = b.Send(Message{From: 0, To: 1, Kind: KindEvent}) // fails only on a closed bus
		if b.boxes[0].runner.Load().slot.Load() == b.boxes[1] {
			handedOff++
		}
	})
	b.Start(1, func(Message) { reached++ })
	round := func() {
		_ = b.Send(Message{From: 0, To: 0, Kind: KindEvent})
		b.Quiesce()
	}
	round() // starts a worker
	if avg := testing.AllocsPerRun(1000, round); avg != 0 {
		t.Fatalf("a round with one hand-off allocates %.2f objects, want 0", avg)
	}
	if handedOff != 1002 || reached != 1002 {
		t.Fatalf("%d of %d hops went through the hand-off slot, %d reached broker 1", handedOff, 1002, reached)
	}
}

// BenchmarkMailboxSteadyState times the hand-off
// TestMailboxSteadyStateZeroAllocs holds at zero allocations.
func BenchmarkMailboxSteadyState(b *testing.B) {
	m := new(mailbox)
	q := Message{From: 0, To: 1, Kind: KindEvent, Body: []byte{1}, Size: 1}
	buf := make([]Message, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.push(q)
		buf = m.drain(buf[:0], maxBatch)
	}
}

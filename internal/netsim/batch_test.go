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
			seen = append(seen, m.Payload[0])
		}
	})
	for i := 0; i < n; i++ {
		if err := b.Send(Message{From: 0, To: 1, Kind: KindEvent, Payload: []byte{byte(i)}}); err != nil {
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
	m := newMailbox()
	next, want := 0, 0
	var buf []queued
	for _, burst := range []int{1, 1, 3, maxBatch + 5, 1, 2 * maxBatch, 1} {
		for i := 0; i < burst; i++ {
			if !m.push(queued{msg: Message{From: 0, To: 1, Payload: []byte{byte(next)}}}) {
				t.Fatal("push on an open mailbox failed")
			}
			next++
		}
		for want < next {
			var ok bool
			buf, ok = m.popBatch(buf[:0])
			if !ok || len(buf) == 0 || len(buf) > maxBatch {
				t.Fatalf("popBatch = %d messages, ok %v", len(buf), ok)
			}
			for _, q := range buf {
				if q.msg.Payload[0] != byte(want) {
					t.Fatalf("popped message %d, want %d", q.msg.Payload[0], want)
				}
				want++
			}
		}
		if len(m.queue) != 0 || cap(m.queue) == 0 {
			t.Fatalf("after a drain: len %d cap %d, want an empty queue that kept its array", len(m.queue), cap(m.queue))
		}
		for i, q := range m.queue[:cap(m.queue)] {
			if q.msg.Payload != nil {
				t.Fatalf("drained slot %d still references a payload", i)
			}
		}
	}
}

// TestMailboxSteadyStateZeroAllocs: the per-hop hand-off of a walk with
// one event in flight — push one, pop one — allocates nothing.
func TestMailboxSteadyStateZeroAllocs(t *testing.T) {
	m := newMailbox()
	q := queued{msg: Message{From: 0, To: 1, Kind: KindEvent, Payload: []byte{1}}}
	buf := make([]queued, 0, 1)
	avg := testing.AllocsPerRun(1000, func() {
		m.push(q)
		buf, _ = m.popBatch(buf[:0])
	})
	if avg != 0 {
		t.Fatalf("mailbox push+pop allocates %.2f objects per hop, want 0", avg)
	}
}

// BenchmarkMailboxSteadyState times the hand-off
// TestMailboxSteadyStateZeroAllocs holds at zero allocations.
func BenchmarkMailboxSteadyState(b *testing.B) {
	m := newMailbox()
	q := queued{msg: Message{From: 0, To: 1, Kind: KindEvent, Payload: []byte{1}}}
	buf := make([]queued, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.push(q)
		buf, _ = m.popBatch(buf[:0])
	}
}

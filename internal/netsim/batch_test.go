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

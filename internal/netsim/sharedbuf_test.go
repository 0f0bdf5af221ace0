package netsim

import (
	"bytes"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/topology"
)

// TestSendSharedMulticast: one pooled buffer fans out to many recipients
// with correct per-recipient byte accounting, and every reference is
// released once all handlers have run.
func TestSendSharedMulticast(t *testing.T) {
	const n = 8
	b := NewBus(n)
	defer b.Close()
	payload := []byte("shared-payload")
	var mu sync.Mutex
	got := 0
	for i := 0; i < n; i++ {
		b.Start(topology.NodeID(i), func(m Message) {
			mu.Lock()
			defer mu.Unlock()
			if !bytes.Equal(m.Payload, payload) {
				t.Errorf("payload = %q", m.Payload)
			}
			got++
		})
	}
	sb := AcquireBuf()
	sb.B = append(sb.B, payload...)
	for i := 1; i < n; i++ {
		if err := b.SendShared(Message{From: 0, To: topology.NodeID(i), Kind: KindDeliver}, sb); err != nil {
			t.Fatal(err)
		}
	}
	sb.Release()
	b.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if got != n-1 {
		t.Fatalf("handled %d of %d", got, n-1)
	}
	s := b.Stats()
	if want := int64((n - 1) * len(payload)); s.Bytes[KindDeliver] != want {
		t.Fatalf("bytes = %d, want %d (true payload size per recipient)", s.Bytes[KindDeliver], want)
	}
	if refs := sb.refs.Load(); refs != 0 {
		t.Fatalf("buffer refs = %d after quiesce, want 0", refs)
	}
}

// TestSendSharedDropReleases: a fault-injected drop must not take a
// buffer reference nor count bytes.
func TestSendSharedDropReleases(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	b.Start(0, func(Message) {})
	b.Start(1, func(Message) {})
	b.SetDropFunc(func(m Message) bool { return m.Kind == KindSummary })
	sb := AcquireBuf()
	sb.B = append(sb.B, "dropped"...)
	if err := b.SendShared(Message{From: 0, To: 1, Kind: KindSummary}, sb); err != nil {
		t.Fatal(err)
	}
	if refs := sb.refs.Load(); refs != 1 {
		t.Fatalf("refs = %d after drop, want caller's 1", refs)
	}
	sb.Release()
	s := b.Stats()
	if s.Dropped[KindSummary] != 1 || s.Bytes[KindSummary] != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if refs := sb.refs.Load(); refs != 0 {
		t.Fatalf("refs = %d, want 0", refs)
	}
}

// TestCloseReleasesQueuedSharedBufs: messages still queued at Close (their
// handler never started) must release their buffer references.
func TestCloseReleasesQueuedSharedBufs(t *testing.T) {
	b := NewBus(2)
	b.Start(0, func(Message) {})
	// Node 1 is never started: its mailbox accumulates.
	sb := AcquireBuf()
	sb.B = append(sb.B, "stuck"...)
	if err := b.SendShared(Message{From: 0, To: 1, Kind: KindEvent}, sb); err != nil {
		t.Fatal(err)
	}
	sb.Release() // caller's reference; bus still holds one
	if refs := sb.refs.Load(); refs != 1 {
		t.Fatalf("refs = %d before close, want bus's 1", refs)
	}
	b.Close()
	if refs := sb.refs.Load(); refs != 0 {
		t.Fatalf("refs = %d after close, want 0", refs)
	}
}

// TestAcquireBufRecycles: a released buffer's capacity comes back from
// the pool.
func TestAcquireBufRecycles(t *testing.T) {
	sb := AcquireBuf()
	sb.B = append(sb.B, make([]byte, 4096)...)
	sb.Release()
	sb2 := AcquireBuf()
	defer sb2.Release()
	if len(sb2.B) != 0 {
		t.Fatalf("recycled buffer has length %d, want 0", len(sb2.B))
	}
}

// attachedBuf returns a buffer carrying a payload and two attachments.
func attachedBuf() *SharedBuf {
	sb := AcquireBuf()
	sb.B = append(sb.B, "payload"...)
	sb.Attached = append(sb.Attached, "first", "second")
	return sb
}

// assertNoAttachments fails unless sb, after its final Release, holds no
// attachment anywhere in the storage its next owner gets.
func assertNoAttachments(t *testing.T, sb *SharedBuf) {
	t.Helper()
	if refs := sb.refs.Load(); refs != 0 {
		t.Fatalf("refs = %d, want 0 (the final Release has not happened)", refs)
	}
	if len(sb.Attached) != 0 {
		t.Fatalf("released buffer still has %d attachments", len(sb.Attached))
	}
	for i, a := range sb.Attached[:cap(sb.Attached)] {
		if a != nil {
			t.Fatalf("released buffer pins %v in slot %d of its recycled storage", a, i)
		}
	}
}

// TestReleaseClearsAttachments: whichever way a message ends — handled,
// dropped by a fault, parked for a paused broker and discarded at Close,
// or still queued at Close — the final Release leaves no attachment behind,
// and a handler saw exactly what the sender attached.
func TestReleaseClearsAttachments(t *testing.T) {
	send := func(t *testing.T, b *Bus, sb *SharedBuf) {
		t.Helper()
		if err := b.SendShared(Message{From: 0, To: 1, Kind: KindEvent}, sb); err != nil {
			t.Fatal(err)
		}
		sb.Release()
	}
	t.Run("handled", func(t *testing.T) {
		b := NewBus(2)
		defer b.Close()
		var got []any
		b.Start(1, func(m Message) { got = append(got, m.Attached...) })
		sb := attachedBuf()
		send(t, b, sb)
		b.Quiesce()
		if len(got) != 2 || got[0] != "first" || got[1] != "second" {
			t.Fatalf("handler saw attachments %v", got)
		}
		assertNoAttachments(t, sb)
	})
	t.Run("dropped by a fault", func(t *testing.T) {
		b := NewBus(2)
		defer b.Close()
		seen := 0
		b.SetDropFunc(func(m Message) bool { seen = len(m.Attached); return true })
		sb := attachedBuf()
		send(t, b, sb)
		if seen != 2 {
			t.Fatalf("fault hook saw %d attachments, want 2", seen)
		}
		assertNoAttachments(t, sb)
	})
	t.Run("parked, then discarded at Close", func(t *testing.T) {
		b := NewBus(2)
		if err := b.Faults().Pause(1); err != nil {
			t.Fatal(err)
		}
		sb := attachedBuf()
		send(t, b, sb)
		if refs := sb.refs.Load(); refs != 1 {
			t.Fatalf("refs = %d while parked, want the bus's 1", refs)
		}
		b.Close()
		assertNoAttachments(t, sb)
	})
	t.Run("queued at Close", func(t *testing.T) {
		b := NewBus(2) // node 1 is never started
		sb := attachedBuf()
		send(t, b, sb)
		b.Close()
		assertNoAttachments(t, sb)
	})
	// The next owner of whatever the pool hands out starts clean.
	sb := AcquireBuf()
	defer sb.Release()
	if len(sb.B) != 0 || len(sb.Attached) != 0 {
		t.Fatalf("acquired buffer has %d bytes and %d attachments", len(sb.B), len(sb.Attached))
	}
}

package broker

import (
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// TestUnsubscribeQueuesRetraction: withdrawing a subscription whose rows
// already propagated queues a retraction for the next period, fences the
// local id, and shrinks the local merged summary immediately.
func TestUnsubscribeQueuesRetraction(t *testing.T) {
	b := newBroker(t, 0, 2)
	sub, _ := schema.ParseSubscription(testSchema(t), `price > 1`)
	id1, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	b.TakeDelta() // rows are now remote

	if err := b.Unsubscribe(id1); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.PendingRetracts != 1 || st.FencedIDs != 1 {
		t.Fatalf("PendingRetracts = %d, FencedIDs = %d, want 1, 1", st.PendingRetracts, st.FencedIDs)
	}
	if st.MergedSummarySubs != 1 {
		t.Fatalf("MergedSummarySubs = %d, want 1", st.MergedSummarySubs)
	}
	d := b.TakeDelta()
	if d.NumRetractions() != 1 || d.Retractions()[0] != id1.Key() {
		t.Fatalf("delta retractions = %v, want [%d]", d.Retractions(), id1.Key())
	}
	if b.Stats().PendingRetracts != 0 {
		t.Fatalf("retraction not drained with the delta")
	}
}

// TestUnsubscribeUnpropagatedIsLocal: a subscription withdrawn before its
// delta ever shipped leaves no trace — no retraction, no fence, and the
// local id is immediately reusable via Restore.
func TestUnsubscribeUnpropagatedIsLocal(t *testing.T) {
	b := newBroker(t, 0, 2)
	sub, _ := schema.ParseSubscription(testSchema(t), `price > 1`)
	id1, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(id1); err != nil {
		t.Fatal(err)
	}
	d := b.TakeDelta()
	if d.NumSubscriptions() != 0 || d.NumRetractions() != 0 {
		t.Fatalf("delta carries %d subs, %d retractions; want an empty period", d.NumSubscriptions(), d.NumRetractions())
	}
	if st := b.Stats(); st.FencedIDs != 0 {
		t.Fatalf("FencedIDs = %d for an unpropagated unsubscribe", st.FencedIDs)
	}
	if err := b.Restore(id1.Local, sub, noDeliver); err != nil {
		t.Fatalf("Restore of never-propagated id: %v", err)
	}
}

// TestRestoreFencedUntilFullSync is the regression test for the local-id
// reuse hazard: restoring a subscription under a retired id before the
// retraction has reached the whole network would let the newcomer inherit
// the dead subscription's remote rows. The id must stay fenced until a
// full sync confirms every merged summary was rebuilt.
func TestRestoreFencedUntilFullSync(t *testing.T) {
	b := newBroker(t, 0, 2)
	sub, _ := schema.ParseSubscription(testSchema(t), `price > 1`)
	id1, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	b.TakeDelta()
	if err := b.Unsubscribe(id1); err != nil {
		t.Fatal(err)
	}
	err = b.Restore(id1.Local, sub, noDeliver)
	if err == nil {
		t.Fatalf("Restore reused a fenced local id")
	}
	if !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("Restore error = %v, want a fence rejection", err)
	}
	b.TakePeriodSummary(true)
	b.FinishFullSync()
	if err := b.Restore(id1.Local, sub, noDeliver); err != nil {
		t.Fatalf("Restore after full sync: %v", err)
	}
}

// TestFenceSurvivesMidSyncRetirement: an id retired while a full-sync
// period is in flight had its rows in the sync payload, so that sync
// cannot clear it — only the next one can.
func TestFenceSurvivesMidSyncRetirement(t *testing.T) {
	b := newBroker(t, 0, 2)
	sub, _ := schema.ParseSubscription(testSchema(t), `price > 1`)
	early, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	late, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	b.TakeDelta()
	if err := b.Unsubscribe(early); err != nil {
		t.Fatal(err)
	}

	b.TakePeriodSummary(true) // sync payload taken; early's fence is clearable
	if err := b.Unsubscribe(late); err != nil {
		t.Fatal(err) // late's rows are IN the sync payload: must stay fenced
	}
	b.FinishFullSync()

	if err := b.Restore(early.Local, sub, noDeliver); err != nil {
		t.Fatalf("pre-sync fence not lifted: %v", err)
	}
	if err := b.Restore(late.Local, sub, noDeliver); err == nil {
		t.Fatalf("mid-sync fence was lifted with its rows still in remote summaries")
	}
	b.TakePeriodSummary(true)
	b.FinishFullSync()
	if err := b.Restore(late.Local, sub, noDeliver); err != nil {
		t.Fatalf("fence not lifted by the following sync: %v", err)
	}
}

// TestAmortizedCompaction: n unsubscribes trigger O(n / threshold)
// compactions, not n — the core of the churn-cost fix.
func TestAmortizedCompaction(t *testing.T) {
	b := newBroker(t, 0, 2)
	sub, _ := schema.ParseSubscription(testSchema(t), `price > 1`)
	var ids []subid.ID
	const n = 100
	for i := 0; i < n; i++ {
		id, err := b.Subscribe(sub, noDeliver)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.TakeDelta()
	for _, id := range ids {
		if err := b.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	got := b.Stats().Compactions
	if got == 0 {
		t.Fatalf("no compaction over %d removals — fragmentation unbounded", n)
	}
	if max := int64(n / compactMinRemovals); got > max {
		t.Fatalf("Compactions = %d over %d removals, want amortized ≤ %d", got, n, max)
	}
}

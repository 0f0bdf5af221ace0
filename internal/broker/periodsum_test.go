package broker

import (
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
)

// TestTakePeriodSummaryFullSync: a full-sync period is a true resync —
// the broker rebuilds its merged summary from its own raw subscriptions
// (discarding remote rows, which the period re-delivers from their
// owners), resets Merged_Brokers to itself, drains the delta, and ships a
// clone that later merges cannot corrupt.
func TestTakePeriodSummaryFullSync(t *testing.T) {
	s := testSchema(t)
	b := newBroker(t, 0, 3)
	sub, _ := schema.ParseSubscription(s, `price > 1`)
	if _, err := b.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	// Fold in a remote broker's summary, as Algorithm 2 would.
	remote := summary.New(s, interval.Lossy)
	rsub, _ := schema.ParseSubscription(s, `price < -5`)
	rid := subid.ID{Broker: 2, Local: 0, Attrs: subid.NewMask(s.Len())}
	rid.Attrs.Set(1)
	if err := remote.Insert(rid, rsub); err != nil {
		t.Fatal(err)
	}
	remoteSet := subid.NewMask(3)
	remoteSet.Set(2)
	if err := b.MergeEncodedSummary(remote.Encode(nil), remoteSet); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.MergedBrokerCount != 2 {
		t.Fatalf("pre-sync Merged_Brokers = %d, want 2", st.MergedBrokerCount)
	}

	full := b.TakePeriodSummary(true)
	if full.NumSubscriptions() != 1 {
		t.Fatalf("full-sync summary subs = %d, want own only = 1", full.NumSubscriptions())
	}
	// The resync dropped the stale remote rows and reset Merged_Brokers.
	if st := b.Stats(); st.MergedSummarySubs != 1 || st.MergedBrokerCount != 1 {
		t.Fatalf("post-sync merged = %d subs / %d brokers, want 1 / 1",
			st.MergedSummarySubs, st.MergedBrokerCount)
	}
	// The delta was drained by the full sync.
	if d := b.TakePeriodSummary(false); d.NumSubscriptions() != 0 {
		t.Fatalf("delta after full sync = %d subs, want 0", d.NumSubscriptions())
	}
	// The full-sync summary is a clone: growing the broker's merged state
	// must not affect it.
	sub2, _ := schema.ParseSubscription(s, `symbol = XYZ`)
	if _, err := b.Subscribe(sub2, noDeliver); err != nil {
		t.Fatal(err)
	}
	if full.NumSubscriptions() != 1 {
		t.Fatalf("full-sync summary grew to %d subs; not a clone", full.NumSubscriptions())
	}
}

// TestMergeEncodedSummaryMergedBrokers: a merged payload's rows are
// matched at once and its Merged_Brokers set joins the broker's; a
// malformed payload extends nothing.
func TestMergeEncodedSummaryMergedBrokers(t *testing.T) {
	s := testSchema(t)
	sub, _ := schema.ParseSubscription(s, `price > 10 && symbol = OTE`)
	remote := summary.New(s, interval.Lossy)
	rid := subid.ID{Broker: 1, Local: 7, Attrs: subid.NewMask(s.Len())}
	rid.Attrs.Set(0)
	rid.Attrs.Set(1)
	if err := remote.Insert(rid, sub); err != nil {
		t.Fatal(err)
	}
	wire := remote.Encode(nil)
	set := subid.NewMask(3)
	set.Set(1)

	direct := newBroker(t, 0, 3)
	if err := direct.MergeEncodedSummary(wire, set); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `price=20 symbol=OTE`)
	if got := direct.MatchMerged(ev); len(got) != 1 || got[0].Key() != rid.Key() {
		t.Fatalf("matched %v, want the merged id %v", got, rid)
	}
	if _, got := direct.SnapshotMerged(); !got.Has(0) || !got.Has(1) || got.Has(2) {
		t.Fatalf("Merged_Brokers = %v, want {0,1}", got.Bits())
	}
	// A malformed payload must not extend Merged_Brokers.
	bad := newBroker(t, 0, 3)
	if err := bad.MergeEncodedSummary(wire[:len(wire)-2], set); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, badSet := bad.SnapshotMerged(); badSet.Count() != 1 {
		t.Fatalf("Merged_Brokers extended on failed merge: %v", badSet.Bits())
	}
}

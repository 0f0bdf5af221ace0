package summary

import (
	"bytes"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/subid"
)

// TestWireVersionChurnFree pins the compatibility contract: a summary with
// no pending retractions encodes as v2, byte for byte, and only a
// non-empty retraction set switches the payload to v3.
func TestWireVersionChurnFree(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(0, 1), mustSub(t, s, `price > 8 && volume > 100`)); err != nil {
		t.Fatal(err)
	}
	enc := sm.Encode(nil)
	if enc[3] != '2' {
		t.Fatalf("churn-free summary encoded as version %q, want '2'", enc[3])
	}
	sm.AddRetraction(id(0, 99).Key())
	enc3 := sm.Encode(nil)
	if enc3[3] != '3' {
		t.Fatalf("summary with retraction encoded as version %q, want '3'", enc3[3])
	}
	sm.ClearRetractions()
	if again := sm.Encode(nil); !bytes.Equal(again, enc) {
		t.Fatalf("clearing retractions did not restore the v2 encoding")
	}
}

// TestCodecV3RoundTrip encodes a summary carrying both live rows and a
// pending-retraction set and checks Decode reconstructs both, with a
// byte-identical re-encoding.
func TestCodecV3RoundTrip(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(2, 1), mustSub(t, s, `exchange = "N*SE" && price < 8.70 && price > 8.30`)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Insert(id(2, 2), mustSub(t, s, `symbol >* OT && volume > 130000`)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Insert(id(2, 3), mustSub(t, s, `low < 8.05`)); err != nil {
		t.Fatal(err)
	}
	sm.AddRetraction(id(2, 2).Key()) // retract one live row
	sm.AddRetraction(id(2, 7).Key()) // and one never-inserted id

	enc := sm.Encode(nil)
	dec, err := Decode(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumSubscriptions() != 2 {
		t.Fatalf("decoded NumSubscriptions = %d, want 2", dec.NumSubscriptions())
	}
	if dec.Contains(id(2, 2)) {
		t.Fatalf("decoded summary still contains retracted id")
	}
	got, want := dec.Retractions(), sm.Retractions()
	if len(got) != len(want) {
		t.Fatalf("decoded retractions = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decoded retractions = %v, want %v", got, want)
		}
	}
	if err := dec.Validate(); err != nil {
		t.Fatal(err)
	}
	if again := dec.Encode(nil); !bytes.Equal(again, enc) {
		t.Fatalf("v3 round trip is not byte-stable")
	}
}

// TestMergeAppliesRetractions checks "retraction wins": folding a summary
// that retracts an id removes that id's rows from the receiver even though
// the receiver inserted them earlier, and the retraction is retained for
// onward propagation.
func TestMergeAppliesRetractions(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(1, 5), mustSub(t, s, `price > 8 && volume > 100`)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Insert(id(3, 1), mustSub(t, s, `low < 2`)); err != nil {
		t.Fatal(err)
	}
	delta := New(s, interval.Lossy)
	delta.AddRetraction(id(1, 5).Key())
	if err := sm.MergeEncoded(delta.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if sm.Contains(id(1, 5)) {
		t.Fatal("retracted id survived the merge")
	}
	if !sm.Contains(id(3, 1)) {
		t.Fatal("unrelated id was lost")
	}
	if sm.NumRetractions() != 1 {
		t.Fatal("retraction not retained for onward propagation")
	}
	if got := sm.Match(mustEvent(t, s, `price=9 volume=200`)); len(got) != 0 {
		t.Fatalf("retracted subscription still matches: %v", got)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRetractionWinsOverPayloadRows feeds a payload that both carries rows
// for an id and retracts it — the retraction must win on decode.
func TestRetractionWinsOverPayloadRows(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(4, 9), mustSub(t, s, `price > 1`)); err != nil {
		t.Fatal(err)
	}
	sm.retract = map[uint64]struct{}{id(4, 9).Key(): {}} // bypass AddRetraction's immediate removal
	enc := sm.Encode(nil)

	dec, err := Decode(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Contains(id(4, 9)) {
		t.Fatalf("Decode kept rows for an id the same payload retracts")
	}
	recv := New(s, interval.Lossy)
	if err := recv.MergeEncoded(enc); err != nil {
		t.Fatal(err)
	}
	if recv.Contains(id(4, 9)) {
		t.Fatalf("MergeEncoded kept rows for an id the same payload retracts")
	}
}

// TestTombstoneReuseNoFalseNegative reuses an id key after an O(1)
// RemoveKey, before any purge point has swept the tombstoned rows. The
// stale rows must not leak into the reused id's match accounting: a
// leftover row would push the per-event counter past the new c3 target
// and silently drop real matches.
func TestTombstoneReuseNoFalseNegative(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	k := id(0, 42)
	if err := sm.Insert(k, mustSub(t, s, `price > 8 && volume > 100`)); err != nil {
		t.Fatal(err)
	}
	sm.RemoveKey(k.Key())
	// Reuse the key for a single-attribute subscription while the old
	// price/volume rows are still tombstoned, not yet purged.
	if err := sm.Insert(k, mustSub(t, s, `price > 8`)); err != nil {
		t.Fatal(err)
	}
	ev := mustEvent(t, s, `price=9 volume=200`)
	if got := sm.Match(ev); len(got) != 1 || got[0].Local != 42 {
		t.Fatalf("Match after id reuse = %v, want the reused subscription", got)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	// The wire form must carry only the live rows.
	dec, err := Decode(s, sm.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Match(ev); len(got) != 1 || got[0].Local != 42 {
		t.Fatalf("Match after round trip = %v, want the reused subscription", got)
	}
}

// TestRemoveKeyIsDeferred pins the performance contract behind the
// amortized unsubscribe: RemoveKey unregisters the id immediately (no
// stale matches) but leaves row sweeping to the next purge point, and
// every read entry point observes post-purge state.
func TestRemoveKeyIsDeferred(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	for i := 1; i <= 8; i++ {
		if err := sm.Insert(id(0, subid.LocalID(i)), mustSub(t, s, `price > 8 && volume > 100`)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 4; i++ {
		sm.RemoveKey(id(0, subid.LocalID(i)).Key())
	}
	if sm.NumSubscriptions() != 4 {
		t.Fatalf("NumSubscriptions = %d, want 4", sm.NumSubscriptions())
	}
	if got := sm.Match(mustEvent(t, s, `price=9 volume=200`)); len(got) != 4 {
		t.Fatalf("Match returned %d ids, want the 4 live ones", len(got))
	}
	st := sm.Stats()
	if st.Subscriptions != 4 {
		t.Fatalf("Stats.Subscriptions = %d, want 4", st.Subscriptions)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
}

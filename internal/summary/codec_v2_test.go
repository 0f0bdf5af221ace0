package summary

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/subid"
)

// randomSummary builds a summary with n random subscriptions spread over a
// handful of brokers, mimicking the per-broker id locality the delta
// encoding exploits.
func randomSummary(t *testing.T, rng *rand.Rand, n int) *Summary {
	t.Helper()
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	for i := 0; i < n; i++ {
		sub := randomSubscription(rng, s)
		id := subid.ID{Broker: subid.BrokerID(rng.Intn(8)), Local: subid.LocalID(i)}
		if err := sm.Insert(id, sub); err != nil {
			t.Fatal(err)
		}
	}
	return sm
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 10, 120} {
		sm := randomSummary(t, rng, n)
		if got, want := sm.EncodedSize(), len(sm.Encode(nil)); got != want {
			t.Errorf("n=%d: EncodedSize = %d, len(Encode) = %d", n, got, want)
		}
		// The same summary carrying retractions (wire version 3).
		for _, key := range sm.IDs()[:n/4] {
			sm.AddRetraction(key.Key())
		}
		if got, want := sm.EncodedSize(), len(sm.Encode(nil)); got != want {
			t.Errorf("n=%d with %d retractions: EncodedSize = %d, len(Encode) = %d",
				n, sm.NumRetractions(), got, want)
		}
	}
}

// TestV1PayloadRefused: the fixed-width version '1' format is no longer
// spoken. A well-formed v1 payload (a literal: nothing can emit one any
// more) is refused at the version byte by both decoders, and MergeEncoded
// refuses it before touching its target: same bytes as a twin that never
// saw the payload, tombstones unpurged, compiled view still cached.
func TestV1PayloadRefused(t *testing.T) {
	s := stockSchema(t)
	const refusal = "unsupported wire version"
	if _, err := Decode(s, []byte(v1SeedPayload)); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("Decode of a v1 payload: err = %v, want %q", err, refusal)
	}
	build := func() *Summary {
		sm := randomSummary(t, rand.New(rand.NewSource(13)), 40)
		sm.AddRetraction(sm.keys[5])
		sm.RemoveKey(sm.keys[3])
		return sm
	}
	sm, twin := build(), build()
	view, tombstones := sm.compiled(), len(sm.dead)
	if err := sm.MergeEncoded([]byte(v1SeedPayload)); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("MergeEncoded of a v1 payload: err = %v, want %q", err, refusal)
	}
	if len(sm.dead) != tombstones || sm.view.Load() != view {
		t.Fatal("MergeEncoded touched its target before refusing the payload")
	}
	if !bytes.Equal(sm.Encode(nil), twin.Encode(nil)) {
		t.Fatal("summary changed by a refused v1 payload")
	}
}

// TestMergeEncodedEquivalentToDecodeMerge: folding a wire-form summary in
// directly must produce byte-identical state to Decode-then-Merge, with
// and without a retraction section, including repeated merges.
func TestMergeEncodedEquivalentToDecodeMerge(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(17))
	base := randomSummary(t, rng, 80)
	other := randomSummary(t, rng, 80)
	v2 := other.Encode(nil)
	other.AddRetraction(other.keys[0])
	other.AddRetraction(base.keys[0]) // retracts a key the receiver holds
	for _, encode := range []struct {
		name string
		wire []byte
	}{
		{"v2", v2},
		{"v3", other.Encode(nil)},
	} {
		viaDecode := base.Clone()
		decoded, err := Decode(s, encode.wire)
		if err != nil {
			t.Fatalf("%s: %v", encode.name, err)
		}
		if err := viaDecode.Merge(decoded); err != nil {
			t.Fatalf("%s: Merge: %v", encode.name, err)
		}
		direct := base.Clone()
		if err := direct.MergeEncoded(encode.wire); err != nil {
			t.Fatalf("%s: MergeEncoded: %v", encode.name, err)
		}
		if !bytes.Equal(direct.Encode(nil), viaDecode.Encode(nil)) {
			t.Fatalf("%s: MergeEncoded state differs from Decode+Merge", encode.name)
		}
		// Merging the same payload again must be idempotent, as Merge is.
		if err := direct.MergeEncoded(encode.wire); err != nil {
			t.Fatalf("%s: repeated MergeEncoded: %v", encode.name, err)
		}
		if !bytes.Equal(direct.Encode(nil), viaDecode.Encode(nil)) {
			t.Fatalf("%s: repeated MergeEncoded not idempotent", encode.name)
		}
	}
}

// TestMergeEncodedIntoEmpty: merging into a fresh summary reproduces
// Decode exactly.
func TestMergeEncodedIntoEmpty(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(23))
	sm := randomSummary(t, rng, 60)
	wire := sm.Encode(nil)
	into := New(s, interval.Lossy)
	if err := into.MergeEncoded(wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(into.Encode(nil), wire) {
		t.Fatal("MergeEncoded into empty summary differs from Decode")
	}
}

func TestMergeEncodedRejectsCorrupt(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(29))
	sm := randomSummary(t, rng, 20)
	wire := sm.Encode(nil)
	for cut := 0; cut < len(wire); cut += 5 {
		into := New(s, interval.Lossy)
		if err := into.MergeEncoded(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	into := New(s, interval.Lossy)
	if err := into.MergeEncoded(append(append([]byte(nil), wire...), 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodeV2RejectsNonAscendingIDs: a zero delta (duplicate id) in a v2
// id list must be rejected, preserving the sorted-unique invariant.
func TestDecodeV2RejectsHostileCounts(t *testing.T) {
	s := stockSchema(t)
	// Handcraft a v2 header claiming a gigantic registry count with no
	// bytes behind it; the decoder must fail fast, not allocate.
	buf := []byte{'S', 'S', 'M', '2', byte(interval.Lossy),
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01} // uvarint 2^63-ish
	if _, err := Decode(s, buf); err == nil {
		t.Fatal("hostile registry count accepted")
	}
	into := New(s, interval.Lossy)
	if err := into.MergeEncoded(buf); err == nil {
		t.Fatal("hostile registry count accepted by MergeEncoded")
	}
}

package summary

import (
	"bytes"
	"math/rand"
	"slices"
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

// TestV1PayloadRefused: the fixed-width version '1' format is no longer
// spoken. A well-formed v1 payload (a literal: nothing can emit one any
// more) is refused at the version byte by both decoders, and MergeEncoded
// refuses it before touching its target: same bytes as a twin that never
// saw the payload, tombstones unpurged.
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
	tombstones := len(sm.dead)
	if err := sm.MergeEncoded([]byte(v1SeedPayload)); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("MergeEncoded of a v1 payload: err = %v, want %q", err, refusal)
	}
	if len(sm.dead) != tombstones {
		t.Fatal("MergeEncoded touched its target before refusing the payload")
	}
	if !bytes.Equal(sm.Encode(nil), twin.Encode(nil)) {
		t.Fatal("summary changed by a refused v1 payload")
	}
}

// TestMergeEncodedNoFalseNegative is the law a multi-broker summary
// (Section 4.1) owes Algorithm 1: for brokers A and B with disjoint ids,
// A⊕B reports, for every event, every id that A or B reports, except the
// ids B's payload retracts; it reports no retracted id and no id neither
// side holds. B retracts one of its own ids and one of A's, and A⊕B is
// built on a copy of A that holds a tombstone. Merging the same payload twice leaves the state of one
// merge.
func TestMergeEncodedNoFalseNegative(t *testing.T) {
	s := stockSchema(t)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		build := func(broker subid.BrokerID) *Summary {
			sm := New(s, interval.Lossy)
			for i := 0; i < 20+rng.Intn(30); i++ {
				if err := sm.Insert(subid.ID{Broker: broker, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
					t.Fatal(err)
				}
			}
			return sm
		}
		a, b := build(1), build(2)
		ab := a.Clone()
		removed := a.keys[rng.Intn(len(a.keys))]
		a.RemoveKey(removed)
		ab.RemoveKey(removed) // a tombstone the merge meets
		retracted := map[uint64]bool{
			b.keys[rng.Intn(len(b.keys))]: true,
			a.keys[rng.Intn(len(a.keys))]: true,
		}
		for k := range retracted {
			b.AddRetraction(k)
		}
		payload := b.Encode(nil)
		if err := ab.MergeEncoded(payload); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mab, ma, mb := ab.NewMatcher(), a.NewMatcher(), b.NewMatcher()
		for probe := 0; probe < 50; probe++ {
			ev := randomEvent(rng, s)
			got := make(map[uint64]bool)
			for _, k := range mab.MatchKeys(ev) {
				_, inA := a.ids[k]
				_, inB := b.ids[k]
				if retracted[k] || !(inA || inB) {
					t.Fatalf("seed %d: A⊕B reports id %d, retracted or held by neither side, on %s", seed, k, ev.Format(s))
				}
				got[k] = true
			}
			for _, k := range slices.Concat(ma.MatchKeys(ev), mb.MatchKeys(ev)) {
				if !retracted[k] && !got[k] {
					t.Fatalf("seed %d: id %d matches %s in A or B but not in A⊕B", seed, k, ev.Format(s))
				}
			}
		}
		once := ab.Encode(nil)
		if err := ab.MergeEncoded(payload); err != nil {
			t.Fatalf("seed %d: repeated merge: %v", seed, err)
		}
		if !bytes.Equal(ab.Encode(nil), once) {
			t.Fatalf("seed %d: merging the payload twice differs from merging it once", seed)
		}
	}
}

// TestMergeEncodedIntoEmpty is the round-trip law of the codec: Decode,
// which is MergeEncoded into an empty summary, re-encodes to the bytes it
// was given, Encode(Decode(Encode(x))) = Encode(x), for summaries that
// carry tombstoned rows and pending retractions (of live ids and of ids
// never inserted).
func TestMergeEncodedIntoEmpty(t *testing.T) {
	s := stockSchema(t)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sm := randomSummary(t, rng, rng.Intn(80))
		for i := 0; i < len(sm.keys)/8; i++ {
			sm.RemoveKey(sm.keys[rng.Intn(len(sm.keys))])
		}
		for i := 0; i < len(sm.keys)/8; i++ {
			sm.AddRetraction(sm.keys[rng.Intn(len(sm.keys))])
		}
		if rng.Intn(2) == 0 {
			sm.AddRetraction(subid.ID{Broker: 9, Local: subid.LocalID(seed)}.Key())
		}
		wire := sm.Encode(nil)
		dec, err := Decode(s, wire)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := dec.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(dec.Encode(nil), wire) {
			t.Fatalf("seed %d: Encode(Decode(Encode(x))) differs from Encode(x)", seed)
		}
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

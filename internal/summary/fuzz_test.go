package summary

import (
	"bytes"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/subid"
)

// fuzzSeedSummary builds the seed summary used by the fuzz targets.
func fuzzSeedSummary(f *testing.F) *Summary {
	s := stockSchema(f)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(subid.ID{Broker: 1, Local: 2}, mustSub(f, s, `price > 8 && symbol = OTE`)); err != nil {
		f.Fatal(err)
	}
	if err := sm.Insert(subid.ID{Broker: 1, Local: 3}, mustSub(f, s, `price = 4 && exchange != NYSE`)); err != nil {
		f.Fatal(err)
	}
	return sm
}

// v1SeedPayload is fuzzSeedSummary in the fixed-width version '1' wire
// form, captured from the last encoder that could emit it. The decoders
// refuse it at the version byte, so it and its mutations are hostile
// seeds: the shape an old peer or a stale capture would send.
const v1SeedPayload = "SSM1\x00\x02\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\x01\n\x00\x00\x00\x00\x00\x00\x00" +
	"\x03\x00\x00\x00\x01\x00\x00\x00\x01\t\x00\x00\x00\x00\x00\x00\x00\x01\x00\x03\x00\x01\x00\x00\x00" +
	"\x00\x00\x00\x00\x00\x00 @\x00\x00\x00\x00\x00\x00\xf0\x7f\x03\x01\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00" +
	"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x10@\x01\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00" +
	"\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x04\x00NYSE\x01\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00" +
	"\x01\x00\x01\x00\x00\x00\x01\x03\x00OTE\x01\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"

// addCodecSeeds seeds f with the summary's wire form and the refused v1
// payload, plus truncations and bit-flip corruptions of each (exercising
// corrupt varint deltas).
func addCodecSeeds(f *testing.F, sm *Summary) {
	for _, valid := range [][]byte{sm.Encode(nil), []byte(v1SeedPayload)} {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:len(valid)-1])
		corrupted := append([]byte(nil), valid...)
		for i := 5; i < len(corrupted); i += 7 {
			corrupted[i] ^= 0xFF
		}
		f.Add(corrupted)
		// High-bit smear turns small varints into multi-byte ones and
		// breaks delta monotonicity.
		smeared := append([]byte(nil), valid...)
		for i := 5; i < len(smeared); i += 3 {
			smeared[i] |= 0x80
		}
		f.Add(smeared)
	}
	f.Add([]byte{})
	f.Add([]byte("SSM1"))
	f.Add([]byte("SSM2"))
	f.Add([]byte("SSM3")) // retraction-carrying header with no body
}

// FuzzDecode: the summary decoder must never panic and must only accept
// inputs that re-encode to a stable canonical form.
// Run with `go test -fuzz=FuzzDecode` for exploration; the seed corpus
// runs in normal test mode.
func FuzzDecode(f *testing.F) {
	s := stockSchema(f)
	addCodecSeeds(f, fuzzSeedSummary(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		sm, err := Decode(s, data)
		if err != nil {
			return
		}
		// Accepted inputs must round-trip: the canonical re-encode decodes
		// again to the byte-identical encoding.
		canonical := sm.Encode(nil)
		again, err := Decode(s, canonical)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(again.Encode(nil), canonical) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
	})
}

// FuzzMergeEncoded: folding arbitrary bytes into a live summary must
// never panic and must leave the summary in an encodable, decodable
// state (partial merges on corrupt input are allowed — they model a
// message lost mid-transfer — but never a corrupt structure). For
// canonical inputs the fold must agree byte-for-byte with Decode+Merge.
func FuzzMergeEncoded(f *testing.F) {
	s := stockSchema(f)
	seed := fuzzSeedSummary(f)
	addCodecSeeds(f, seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		into := seed.Clone()
		mergeErr := into.MergeEncoded(data)
		// Success or failure, the summary must still round-trip.
		if _, err := Decode(s, into.Encode(nil)); err != nil {
			t.Fatalf("summary corrupt after MergeEncoded (err=%v): %v", mergeErr, err)
		}

		decoded, err := Decode(s, data)
		if err != nil {
			return
		}
		if !bytes.Equal(decoded.Encode(nil), data) {
			return // accepted but non-canonical; ordering differences allowed
		}
		if mergeErr != nil {
			t.Fatalf("canonical input rejected by MergeEncoded: %v", mergeErr)
		}
		viaDecode := seed.Clone()
		if err := viaDecode.Merge(decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(into.Encode(nil), viaDecode.Encode(nil)) {
			t.Fatal("MergeEncoded diverges from Decode+Merge on canonical input")
		}
	})
}

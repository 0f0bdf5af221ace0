package summary

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
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

// mergeToFixpoint folds data into into and fails unless the result's
// encoding is a fixpoint: it decodes, and re-encodes to the same bytes.
// Partial merges on corrupt input are allowed — they model a message lost
// mid-transfer — but never a corrupt structure.
func mergeToFixpoint(t *testing.T, s *schema.Schema, into *Summary, data []byte) {
	mergeErr := into.MergeEncoded(data)
	canonical := into.Encode(nil)
	again, err := Decode(s, canonical)
	if err != nil {
		t.Fatalf("summary corrupt after MergeEncoded (err=%v): %v", mergeErr, err)
	}
	if !bytes.Equal(again.Encode(nil), canonical) {
		t.Fatalf("encoding after MergeEncoded (err=%v) is not a fixpoint", mergeErr)
	}
}

// FuzzDecode: Decode, which is MergeEncoded into an empty summary, never
// panics, and what it builds from any input re-encodes to a fixpoint.
// FuzzMergeEncoded checks the same and more; this target keeps the
// decoder's seed corpus running under its own name.
func FuzzDecode(f *testing.F) {
	s := stockSchema(f)
	addCodecSeeds(f, fuzzSeedSummary(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		mergeToFixpoint(t, s, New(s, interval.Lossy), data)
	})
}

// FuzzMergeEncoded: folding arbitrary bytes into a live summary (the seed)
// and into an empty one (which is Decode) never panics, and leaves each in
// a state whose encoding is a fixpoint.
// Run with `go test -fuzz=FuzzMergeEncoded` for exploration; the seed
// corpus runs in normal test mode.
func FuzzMergeEncoded(f *testing.F) {
	s := stockSchema(f)
	seed := fuzzSeedSummary(f)
	addCodecSeeds(f, seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		mergeToFixpoint(t, s, seed.Clone(), data)
		mergeToFixpoint(t, s, New(s, interval.Lossy), data)
	})
}

// fuzzBytes deals a fuzz input out one byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzSummaryAndEvents decodes data into a small summary and a handful of
// events over the stock schema. Values come from small domains (numbers
// 0–7, six words and their fragments), so rows collide: equalities fall
// inside ranges, ≠ entries sit beside them, prefix, suffix and contains
// rows cover the same words, and a subscription may constrain one
// attribute twice. A few ids are removed again and left as tombstones.
func fuzzSummaryAndEvents(s *schema.Schema, data []byte) (*Summary, []*schema.Event) {
	in := fuzzBytes(data)
	words := []string{"NYSE", "OTE", "LSE", "NASDAQ", "OTTO", "SE"}
	number := func(a schema.AttrID, n byte) schema.Value {
		switch s.TypeOf(a) {
		case schema.TypeInt:
			return schema.IntValue(int64(n % 8))
		case schema.TypeDate:
			return schema.Value{Type: schema.TypeDate, Num: float64(n % 8)}
		default:
			return schema.FloatValue(float64(n % 8))
		}
	}
	constraint := func(a schema.AttrID) schema.Constraint {
		op, val := in.next(), in.next()
		if s.TypeOf(a).Arithmetic() {
			ops := []schema.Op{schema.OpEQ, schema.OpNE, schema.OpLT, schema.OpLE, schema.OpGT, schema.OpGE}
			return schema.Constraint{Attr: a, Op: ops[int(op)%len(ops)], Value: number(a, val)}
		}
		ops := []schema.Op{schema.OpEQ, schema.OpNE, schema.OpPrefix, schema.OpSuffix, schema.OpContains}
		o, w := ops[int(op)%len(ops)], words[int(val)%len(words)]
		switch o {
		case schema.OpPrefix:
			w = w[:1+int(val>>4)%len(w)]
		case schema.OpSuffix, schema.OpContains:
			w = w[int(val>>4)%len(w):]
		}
		return schema.Constraint{Attr: a, Op: o, Value: schema.StringValue(w)}
	}
	in.next() // once the AACS mode; still read so the seed corpus decodes as before
	sm := New(s, interval.Lossy)
	for i, n := 0, 1+int(in.next()%16); i < n; i++ {
		var cs []schema.Constraint
		for j, attrs := 0, 1+int(in.next()%3); j < attrs; j++ {
			a := schema.AttrID(int(in.next()) % s.Len())
			cs = append(cs, constraint(a))
			if in.next()&3 == 0 {
				cs = append(cs, constraint(a))
			}
		}
		sub, err := schema.NewSubscription(s, cs...)
		if err != nil {
			continue
		}
		// An unsatisfiable pair (price < 2 && price > 5) is stored nowhere
		// and simply never matches, in the reference too.
		_ = sm.Insert(subid.ID{Broker: subid.BrokerID(i % 3), Local: subid.LocalID(i)}, sub)
	}
	for i, n := 0, int(in.next()%4); i < n && len(sm.keys) > 0; i++ {
		sm.RemoveKey(sm.keys[int(in.next())%len(sm.keys)])
	}
	var events []*schema.Event
	for i, n := 0, 1+int(in.next()%6); i < n; i++ {
		var fields []schema.Field
		present := in.next()
		for ai := 0; ai < s.Len(); ai++ {
			if present&(1<<ai) == 0 {
				continue
			}
			a, val := schema.AttrID(ai), in.next()
			if s.TypeOf(a).Arithmetic() {
				fields = append(fields, schema.Field{Attr: a, Value: number(a, val)})
			} else {
				fields = append(fields, schema.Field{Attr: a, Value: schema.StringValue(words[int(val)%len(words)])})
			}
		}
		if e, err := schema.EventFromFields(s, fields); err == nil {
			events = append(events, e)
		}
	}
	return sm, events
}

// admissionSeed is a FuzzMatchKeys input in fuzzSummaryAndEvents' byte
// layout: six subscriptions `a >= 0` whose c3 masks are, in view order,
// {when}, {price}, {when, price}, {volume}, {high} and {low} (six groups),
// then one event per presence bitmap over the schema's attributes, every
// value 1.
func admissionSeed(events ...byte) []byte {
	seed := []byte{0, 5} // Lossy; six subscriptions
	for _, attrs := range [][]byte{{2}, {3}, {2, 3}, {4}, {5}, {6}} {
		seed = append(seed, byte(len(attrs)-1))
		for _, a := range attrs {
			seed = append(seed, a, 5, 0, 1) // a >= 0, no second constraint
		}
	}
	seed = append(seed, 0, byte(len(events)-1)) // no removals; the events
	for _, present := range events {
		seed = append(seed, present)
		seed = append(seed, bytes.Repeat([]byte{1}, bits.OnesCount8(present))...)
	}
	return seed
}

// FuzzMatchKeys: on any small summary — =, ≠, ranges, prefix, suffix and
// contains rows, repeated ids, tombstones — the compiled matcher returns
// the keys and the MatchCost of the map-based reference, and the
// reference's keys on the engine's path (MatchKeys, MatchBatch);
// admission never changes the keys Algorithm 1 finds when it counts every
// listed id and leaves the runs the per-group mask scan finds, and every
// scratch set is left zero. The first two are the paper's contract
// (no false negative); the last is what the next event's answer rests on.
// Its summaries hold at most 16 ids, one word, where every row is a
// bitset; TestMatcherMultiWord covers list rows and views of many words.
func FuzzMatchKeys(f *testing.F) {
	s := stockSchema(f)
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(192))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add(admissionSeed(1 << 0))               // exchange only: no group is covered
	f.Add(admissionSeed(0x7f))                 // every attribute: the union path
	f.Add(admissionSeed(1<<2 | 1<<4 | 1<<6))   // {when}, {volume}, {low}: three runs apart
	f.Add(admissionSeed(1<<2|1<<3, 1<<3|1<<5)) // adjacent groups coalesce; then two runs
	f.Fuzz(func(t *testing.T, data []byte) {
		sm, events := fuzzSummaryAndEvents(s, data)
		m := sm.NewMatcher()
		for _, ev := range events {
			wantKeys, wantCost := sm.referenceMatchKeysWithCost(ev)
			gotKeys, gotCost := m.MatchKeysWithCost(ev)
			if !slices.Equal(gotKeys, wantKeys) || gotCost != wantCost {
				t.Fatalf("on %s:\nreference %v %+v\nmatcher   %v %+v",
					ev.Format(s), wantKeys, wantCost, gotKeys, gotCost)
			}
			if all := sm.unadmittedMatchKeys(ev); !slices.Equal(all, wantKeys) {
				t.Fatalf("on %s: admission changed the keys: %v, counting every id %v", ev.Format(s), wantKeys, all)
			}
			requireScratchZero(t, "after "+ev.Format(s), m)
			requireAdmit(t, m, ev)
			requireScratchZero(t, "after admitting "+ev.Format(s), m)
		}
		requireEngineKeys(t, "the engine's path", m, sm, events)
	})
}

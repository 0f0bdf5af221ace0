package main

import (
	"bytes"
	"testing"

	"github.com/subsum/subsum/internal/schema"
)

// The renderers exist because Event.Format prints for humans and
// ParseEvent does not take it back. Over every workload's pool,
// render→parse→encode must be byte-identical to encoding the original.
func TestRenderRoundTrip(t *testing.T) {
	for _, sp := range specs {
		in, err := generate(sp, 11, sizing{pool: 300, shrink: 10})
		if err != nil {
			t.Fatal(err)
		}
		for k, ev := range in.pool {
			text := renderEvent(in.schema, ev)
			back, err := schema.ParseEvent(in.schema, text)
			if err != nil {
				t.Fatalf("%s event %d: %q: %v", sp.name, k, text, err)
			}
			if !bytes.Equal(schema.EncodeEvent(nil, back), schema.EncodeEvent(nil, ev)) {
				t.Fatalf("%s event %d: %q does not round-trip", sp.name, k, text)
			}
			if seq, ok := seqOfDelivery(ev.Format(in.schema)); !ok || seq != int64(k) {
				t.Fatalf("%s event %d: delivery text %q gives seq %d, %v", sp.name, k, ev.Format(in.schema), seq, ok)
			}
		}
		for i, sub := range in.subs {
			text := sub.Format(in.schema)
			back, err := schema.ParseSubscription(in.schema, text)
			if err != nil {
				t.Fatalf("%s subscription %d: %q: %v", sp.name, i, text, err)
			}
			if !bytes.Equal(schema.EncodeSubscription(nil, back), schema.EncodeSubscription(nil, sub)) {
				t.Fatalf("%s subscription %d: %q does not round-trip", sp.name, i, text)
			}
		}
	}
}

// The mismatch the README records for a later issue: what Event.Format
// prints, ParseEvent rejects.
func TestEventFormatIsNotParseable(t *testing.T) {
	sp, _ := specByName("fanout-cw24")
	in, err := generate(sp, 1, small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schema.ParseEvent(in.schema, in.pool[0].Format(in.schema)); err == nil {
		t.Error("schema.ParseEvent now accepts Event.Format output; renderEvent can go")
	}
}

// Seeded events must match the subscription they were built for, for every
// operator the generator emits.
func TestSeededHitsDeliver(t *testing.T) {
	sp, _ := specByName("match-cw24-24k")
	in, err := generate(sp, 4, small)
	if err != nil {
		t.Fatal(err)
	}
	in.oracle = buildOracle(in.subs, in.pool)
	delivering := 0
	for _, subs := range in.oracle {
		if len(subs) > 0 {
			delivering++
		}
	}
	if want := int(float64(len(in.pool)) * sp.seededHits / 2); delivering < want {
		t.Errorf("%d of %d events deliver, want at least %d", delivering, len(in.pool), want)
	}
}

package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
)

// TestSchemaEvolution exercises the paper's Section 6 extension: an
// attribute is added at runtime; subscriptions over the new attribute
// propagate and match, and pre-existing subscriptions are unaffected.
func TestSchemaEvolution(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	net := newNetwork(t, topology.Figure7Tree(), s)

	oldSub, err := schema.ParseSubscription(s, `price > 5`)
	if err != nil {
		t.Fatal(err)
	}
	var oldC, newC collector
	if _, err := net.Subscribe(3, oldSub, oldC.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}

	// Evolve: a "volume" attribute appears.
	id, err := net.ExtendSchema("volume", schema.TypeInt)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("new attribute id = %d, want 1", id)
	}
	if _, err := net.ExtendSchema("volume", schema.TypeInt); err == nil {
		t.Fatal("duplicate attribute accepted")
	}

	newSub, err := schema.ParseSubscription(s, `volume > 100 && price < 3`)
	if err != nil {
		t.Fatalf("subscription over evolved schema: %v", err)
	}
	if _, err := net.Subscribe(9, newSub, newC.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}

	// An event using the new attribute matches the new subscription only;
	// an old-style event still matches the old subscription.
	evNew, err := schema.ParseEvent(s, `price=1 volume=500`)
	if err != nil {
		t.Fatal(err)
	}
	evOld, err := schema.ParseEvent(s, `price=9`)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Publish(0, evNew); err != nil {
		t.Fatal(err)
	}
	if err := net.Publish(12, evOld); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if oldC.count() != 1 {
		t.Errorf("old subscription deliveries = %d, want 1", oldC.count())
	}
	if newC.count() != 1 {
		t.Errorf("new subscription deliveries = %d, want 1", newC.count())
	}
}

// TestSchemaEvolutionConcurrentWithTraffic races schema extension against
// live publishing (run with -race to validate the locking).
func TestSchemaEvolutionConcurrentWithTraffic(t *testing.T) {
	s := schema.MustNew(schema.Attribute{Name: "a0", Type: schema.TypeFloat})
	net := newNetwork(t, topology.Ring(5), s)
	sub, err := schema.ParseSubscription(s, `a0 > 0`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := net.Subscribe(2, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= 20; i++ {
			if _, err := net.ExtendSchema(fmt.Sprintf("a%d", i), schema.TypeFloat); err != nil {
				t.Errorf("extend %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		ev, err := schema.ParseEvent(s, `a0=1`)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			if err := net.Publish(topology.NodeID(i%5), ev); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	net.Flush()
	if c.count() != 50 {
		t.Fatalf("deliveries = %d, want 50", c.count())
	}
	if s.Len() != 21 {
		t.Fatalf("schema len = %d, want 21", s.Len())
	}
}

// TestSchemaAttributeLimit grows a schema to schema.MaxAttributes through
// ExtendSchema. The limit-th attribute sets the highest bit of a 255-word
// c3 mask — the widest the summary codec's one-byte word count carries —
// and must still propagate, decode and match; the next one is refused and
// leaves the schema as it was.
func TestSchemaAttributeLimit(t *testing.T) {
	attrs := make([]schema.Attribute, schema.MaxAttributes-1)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Type: schema.TypeFloat}
	}
	s, err := schema.New(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	net := newNetwork(t, topology.Figure7Tree(), s)
	id, err := net.ExtendSchema("last", schema.TypeFloat)
	if err != nil || int(id) != schema.MaxAttributes-1 {
		t.Fatalf("attribute number %d: id %d, err %v", schema.MaxAttributes, id, err)
	}
	if _, err := net.ExtendSchema("overflow", schema.TypeFloat); err == nil {
		t.Fatalf("attribute number %d accepted", schema.MaxAttributes+1)
	}
	if _, ok := s.ID("overflow"); ok || s.Len() != schema.MaxAttributes {
		t.Fatalf("refused attribute changed the schema: %d attributes", s.Len())
	}

	sub, err := schema.ParseSubscription(s, `last > 5 && a0 < 3`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := net.Subscribe(9, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatalf("propagating a summary over %d attributes: %v", s.Len(), err)
	}
	// A summary its receiver cannot decode is counted, not returned.
	if n := net.Stats().DecodeErrors[netsim.KindSummary]; n != 0 {
		t.Fatalf("%d summary payloads over %d attributes failed to decode", n, s.Len())
	}
	for _, text := range []string{`last=9 a0=1`, `last=1 a0=1`, `a0=1`} {
		ev, err := schema.ParseEvent(s, text)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Publish(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	if c.count() != 1 {
		t.Fatalf("deliveries = %d, want 1 (the event satisfying both constraints)", c.count())
	}
}

package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

// The tests here pin the carried path: an event forwarded or delivered
// inside the process travels as a value and is never encoded or decoded,
// and nothing about that can change what is delivered or what is counted.

// sameEventBytes reports whether two events encode to the same bytes.
func sameEventBytes(a, b *schema.Event) bool {
	return bytes.Equal(schema.EncodeEvent(nil, a), schema.EncodeEvent(nil, b))
}

// checkMessageSize is the size differential for one message of the event
// path: its Size must be the length of the oracle's encoding of its body,
// and that encoding must decode back to the body. It reports the number of
// deliver records the message holds.
func checkMessageSize(t *testing.T, s *schema.Schema, brokers int, m netsim.Message) int {
	t.Helper()
	switch d := m.Body.(type) {
	case *eventMsg:
		b, err := encodeEventMsg(nil, d)
		if err != nil {
			t.Errorf("event %d→%d does not encode: %v", m.From, m.To, err)
			return 0
		}
		if m.Size != len(b) {
			t.Errorf("event %d→%d: Size %d, wire form %d bytes", m.From, m.To, m.Size, len(b))
		}
		back, err := decodeEventMsg(s, b, brokers)
		if err != nil || back.traceID != d.traceID || !sameEventBytes(back.ev, d.ev) ||
			!slices.Equal(back.brocli, d.brocli) || !slices.Equal(back.delivered, d.delivered) {
			t.Errorf("event %d→%d: wire form decodes to %+v (%v), the message is %+v", m.From, m.To, back, err, d)
		}
	case *deliverMsg:
		b := encodeDeliverMsg(nil, d)
		if m.Size != len(b) {
			t.Errorf("deliver %d→%d: Size %d, wire form %d bytes", m.From, m.To, m.Size, len(b))
		}
		// The ids decode as the recipient's: every one the sender named
		// belongs to it.
		back, err := decodeDeliverMsg(s, b, subid.BrokerID(m.To))
		if err != nil || back.traceID != d.traceID || !slices.Equal(back.keys, d.keys) || len(back.recs) != len(d.recs) {
			t.Errorf("deliver %d→%d: wire form decodes to %+v (%v), the message is %+v", m.From, m.To, back, err, d)
			return len(d.recs)
		}
		for i, r := range d.recs {
			if back.recs[i].lo != r.lo || back.recs[i].hi != r.hi || !sameEventBytes(back.recs[i].ev, r.ev) {
				t.Errorf("deliver %d→%d record %d: decodes as %+v, is %+v", m.From, m.To, i, back.recs[i], r)
			}
		}
		return len(d.recs)
	default:
		t.Errorf("%s message %d→%d has a body of type %T", m.Kind, m.From, m.To, m.Body)
	}
	return 0
}

// TestCarriedEventsEqualTheirBytes is the seeded differential over every
// message of the event path: each is counted at exactly the length of the
// oracle's encoding of its body (a publish included), and that encoding
// decodes back to the body. It runs on the two benchmark overlays after
// one period with trace sampling on, with runs of one (a Flush per event)
// and with full runs behind a paused origin (multi-record deliver
// messages), and ends on the brute-force delivered-set oracle.
func TestCarriedEventsEqualTheirBytes(t *testing.T) {
	const nEvents = 400
	for _, tp := range []struct {
		name string
		g    *topology.Graph
	}{
		{"CW24", topology.CW24()},
		{"TransitStub256", topology.TransitStub(256, 256)},
	} {
		t.Run(tp.name, func(t *testing.T) {
			f := newPipelineFixture(t, tp.g, 3*tp.g.Len(), 0, nEvents)
			mustPropagate(t, f.net)
			f.net.SetTraceSampling(7)
			n := f.net.Len()
			var publishes, forwards, delivers, records, sampled int
			// The hook runs serialized under the bus's fault lock, before the
			// recipient has the message, so it may read the body and count
			// without further locking. It drops nothing.
			f.net.InjectFaults(func(m netsim.Message) bool {
				switch m.Kind {
				case netsim.KindEvent:
					if m.From == m.To {
						publishes++
					} else {
						forwards++
					}
					if traced(m) {
						sampled++
					}
				case netsim.KindDeliver:
					delivers++
				default:
					return false
				}
				records += checkMessageSize(t, f.schema, n, m)
				return false
			})
			half := nEvents / 2
			for i, ev := range f.events[:half] {
				if err := f.net.Publish(topology.NodeID(i%n), ev); err != nil {
					t.Fatal(err)
				}
				f.net.Flush()
			}
			const origin = 1
			if err := f.net.Faults().Pause(origin); err != nil {
				t.Fatal(err)
			}
			for _, ev := range f.events[half:] {
				if err := f.net.Publish(origin, ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.net.Faults().Resume(origin); err != nil {
				t.Fatal(err)
			}
			f.net.Flush()
			f.net.InjectFaults(nil)

			if f.assertOracleDeliveredSets(t) == 0 {
				t.Fatal("oracle expects no deliveries; the differential is vacuous")
			}
			f.assertCleanRun(t)
			if publishes != nEvents || forwards == 0 || delivers == 0 || records <= delivers || sampled == 0 {
				t.Fatalf("saw %d publishes, %d forwards, %d deliver messages of %d records and %d traced event messages; "+
					"want every publish, forwards, a multi-record delivery and traced events", publishes, forwards, delivers, records, sampled)
			}
		})
	}
}

// TestOneDecodePerEvent: nothing decodes a published event in the
// process. Every owner it matches, at the hub and beyond it, is handed the
// publisher's own event, one pointer, not a copy each.
func TestOneDecodePerEvent(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Star(3), s)
	var mu sync.Mutex
	got := map[topology.NodeID]*schema.Event{}
	for _, at := range []topology.NodeID{starOwner, starOther} {
		at := at
		if _, err := net.Subscribe(at, mustSub(t, s, `price > 100`), func(_ subid.ID, ev *schema.Event) {
			mu.Lock()
			defer mu.Unlock()
			got[at] = ev
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustPropagate(t, net)
	published := mustEvent(t, s, "symbol=OTE price=150")
	if err := net.Publish(starHub, published); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	mu.Lock()
	defer mu.Unlock()
	a, b := got[starOwner], got[starOther]
	if a == nil || b == nil {
		t.Fatalf("deliveries: owner %v, other %v; want both", a, b)
	}
	if a != published || b != published {
		t.Fatalf("owners were handed %p and %p, the publisher's event is %p: the event was decoded on the way",
			a, b, published)
	}
}

// TestIngressStillValidates: an event that is not of the network's schema —
// built against a wider one, or nil — never reaches a broker. Publish
// returns the schema error: nothing is sent, no decode error is counted,
// nothing is delivered.
func TestIngressStillValidates(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Star(3), s)
	var c collector
	for _, at := range []topology.NodeID{starHub, starOwner} {
		if _, err := net.Subscribe(at, mustSub(t, s, `price > 100`), c.deliver(s)); err != nil {
			t.Fatal(err)
		}
	}
	mustPropagate(t, net)
	wide := schema.MustNew(append(s.Attributes(), schema.Attribute{Name: "venue", Type: schema.TypeString})...)
	attrs := s.Attributes()
	attrs[2] = schema.Attribute{Name: "price", Type: schema.TypeString}
	retyped := schema.MustNew(attrs...)
	for _, tc := range []struct {
		name string
		ev   *schema.Event
	}{
		{"attribute beyond the schema", mustEvent(t, wide, "price=150 venue=ATHEX")},
		{"attribute of another type", mustEvent(t, retyped, "price=high")},
		{"string beyond the codec", mustEvent(t, s, "symbol="+strings.Repeat("X", math.MaxUint16+1)+" price=150")},
		{"nil event", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sampling := range []int{0, 1} { // a sampled publish formats the event first
				net.SetTraceSampling(sampling)
				if err := net.Publish(starHub, tc.ev); err == nil {
					t.Fatalf("sampling %d: Publish accepted the event", sampling)
				}
			}
			net.SetTraceSampling(0)
			net.Flush()
			st := net.Stats()
			if st.Messages[netsim.KindEvent] != 0 || st.TotalErrors() != 0 || c.count() != 0 {
				t.Fatalf("event messages %d, errors %v, deliveries %d; want nothing sent, counted or delivered",
					st.Messages[netsim.KindEvent], st.DecodeErrors, c.count())
			}
		})
	}
	if err := net.Publish(starHub, mustEvent(t, s, "symbol=OTE price=150")); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 2 {
		t.Fatalf("a valid event after the refused ones reached %d consumers, want 2", c.count())
	}
}

// TestSharedEventsUnderConcurrentReaders: four publishers, consumers on
// every broker that read every field of every event they are handed —
// events that other brokers' handlers and consumers are reading at the same
// moment. Run with -race -count=10.
func TestSharedEventsUnderConcurrentReaders(t *testing.T) {
	const publishers, perPublisher = 4, 60
	g := topology.CW24()
	gen := denseWorkload(t)
	s := gen.Schema()
	net := newNetwork(t, g, s)
	var subs []*schema.Subscription
	hits := make([]int, 3*g.Len())
	var (
		mu       sync.Mutex
		fieldSum int // keeps the consumers' reads of every field live
	)
	for i := range hits {
		i := i
		sub := gen.Subscription()
		subs = append(subs, sub)
		if _, err := net.Subscribe(topology.NodeID(i%g.Len()), sub, func(_ subid.ID, ev *schema.Event) {
			read := 0
			for _, f := range ev.Fields() {
				read += int(f.Attr) + int(f.Value.Type) + len(f.Value.Str) + int(f.Value.Num)
			}
			if !sub.Matches(ev) {
				t.Errorf("subscription %d was handed %s", i, ev.Format(s))
			}
			mu.Lock()
			hits[i]++
			fieldSum += read
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustPropagate(t, net)
	events := make([]*schema.Event, publishers*perPublisher)
	for i := range events {
		events[i] = gen.Event(0.9)
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(events); i += publishers {
				if err := net.Publish(topology.NodeID(i%g.Len()), events[i]); err != nil {
					t.Errorf("publish %d: %v", i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	net.Flush()
	total := 0
	for i, sub := range subs {
		want := 0
		for _, ev := range events {
			if sub.Matches(ev) {
				want++
			}
		}
		if hits[i] != want {
			t.Fatalf("subscription %d: %d deliveries, want %d", i, hits[i], want)
		}
		total += want
	}
	if total == 0 || fieldSum == 0 {
		t.Fatalf("%d deliveries, field sum %d; nothing was shared", total, fieldSum)
	}
	if st := net.Stats(); st.TotalDropped() != 0 || st.TotalErrors() != 0 {
		t.Fatalf("loss counters non-zero: %+v", st)
	}
}

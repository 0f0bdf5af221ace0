package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// TestMaskCodecRoundTrip covers widths around the old u8 word-count limit:
// a 300-word mask (19 200 brokers) used to truncate to 300 mod 256 words on
// the wire and corrupt every BROCLI/delivered set beyond broker 16 320.
func TestMaskCodecRoundTrip(t *testing.T) {
	for _, words := range []int{0, 1, 2, 255, 256, 300, 1024} {
		m := make(subid.Mask, words)
		for i := range m {
			m[i] = uint64(i)*0x9e3779b97f4a7c15 + 1 // arbitrary non-zero pattern
		}
		buf, err := encodeMask(nil, m)
		if err != nil {
			t.Fatalf("%d words: encode: %v", words, err)
		}
		got, n, err := decodeMask(buf, 64*words)
		if err != nil {
			t.Fatalf("%d words: decode: %v", words, err)
		}
		if n != len(buf) {
			t.Fatalf("%d words: consumed %d of %d bytes", words, n, len(buf))
		}
		if len(got) != words {
			t.Fatalf("%d words: decoded %d words", words, len(got))
		}
		for i := range m {
			if got[i] != m[i] {
				t.Fatalf("%d words: word %d = %#x, want %#x", words, i, got[i], m[i])
			}
		}
	}
}

func TestMaskCodecOverflowIsAnError(t *testing.T) {
	m := make(subid.Mask, maxMaskWords+1)
	if _, err := encodeMask(nil, m); err == nil || !strings.Contains(err.Error(), "exceeds wire limit") {
		t.Fatalf("oversized mask not rejected: err=%v", err)
	}
	// At exactly the limit it must succeed.
	if _, err := encodeMask(nil, make(subid.Mask, maxMaskWords)); err != nil {
		t.Fatalf("limit-sized mask rejected: %v", err)
	}
}

func TestMaskCodecTruncationErrors(t *testing.T) {
	if _, _, err := decodeMask(nil, 128); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if _, _, err := decodeMask([]byte{1}, 128); err == nil {
		t.Fatal("1-byte buffer accepted")
	}
	// Header claims 2 words but only one follows.
	buf, err := encodeMask(nil, make(subid.Mask, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeMask(buf[:len(buf)-1], 128); err == nil {
		t.Fatal("truncated words accepted")
	}
}

// TestMaskCodecRefusesStrayBits: a set bit at or beyond the broker count is
// a decode error at every width, and every bit below it is accepted in
// any word count.
func TestMaskCodecRefusesStrayBits(t *testing.T) {
	for _, brokers := range []int{1, 3, 63, 64, 65, 128, 200} {
		for _, words := range []int{1, 2, 4} {
			for bit := 0; bit < 64*words; bit++ {
				m := make(subid.Mask, words)
				m.Set(bit)
				buf, err := encodeMask(nil, m)
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = decodeMask(buf, brokers)
				if stray := bit >= brokers; stray != (err != nil) {
					t.Fatalf("%d brokers, %d words, bit %d: err = %v", brokers, words, bit, err)
				}
			}
		}
	}
}

// TestStraySummaryBitIsCounted: the same hole on the summary path was
// permanent — every received Merged_Brokers bit is set in the receiver's
// own set, and nothing ever clears one. The message is refused whole.
func TestStraySummaryBitIsCounted(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Star(3), s)
	remote := summary.New(s, interval.Lossy)
	if err := remote.Insert(subid.ID{Broker: 2, Local: 0}, mustSub(t, s, `price > 100`)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bits         []int
		decodeErrors int64
		merged       int
	}{
		{[]int{2, 3}, 1, 1}, // broker 3 does not exist: refused, own bit only
		{[]int{2}, 1, 2},    // clean: merged
	} {
		set := subid.NewMask(3)
		for _, bit := range tc.bits {
			set.Set(bit)
		}
		payload, err := encodeSummaryMsg(nil, remote, set, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.bus.Send(netsim.Message{From: starOther, To: starHub, Kind: netsim.KindSummary, Body: payload, Size: len(payload)}); err != nil {
			t.Fatal(err)
		}
		net.Flush()
		st := net.Stats()
		if got := net.Broker(starHub).MergedBrokers().Count(); got != tc.merged ||
			st.DecodeErrors[netsim.KindSummary] != tc.decodeErrors || st.TotalErrors() != tc.decodeErrors {
			t.Fatalf("Merged_Brokers bits %v: hub holds %d brokers, decode errors %v; want %d and %d",
				tc.bits, got, st.DecodeErrors, tc.merged, tc.decodeErrors)
		}
	}
}

// TestRetiredModeByteIsCounted: a summary whose AACS mode byte is not
// Lossy's — 1 was the retired exact mode — is refused before anything
// merges, and the refusal is a counted summary decode error.
func TestRetiredModeByteIsCounted(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Star(3), s)
	remote := summary.New(s, interval.Lossy)
	if err := remote.Insert(subid.ID{Broker: 2, Local: 0}, mustSub(t, s, `price > 100`)); err != nil {
		t.Fatal(err)
	}
	set := subid.NewMask(3)
	set.Set(2)
	payload, err := encodeSummaryMsg(nil, remote, set, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(payload, []byte("SSM2"))
	if at < 0 || payload[at+4] != byte(interval.Lossy) {
		t.Fatalf("fixture: no lossy summary body in the payload")
	}
	payload[at+4] = 1
	if err := net.bus.Send(netsim.Message{From: starOther, To: starHub, Kind: netsim.KindSummary, Body: payload, Size: len(payload)}); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	st := net.Stats()
	if got := net.Broker(starHub).MergedBrokers().Count(); got != 1 || st.DecodeErrors[netsim.KindSummary] != 1 {
		t.Fatalf("hub holds %d brokers, decode errors %v; want 1 (its own) and one summary decode error", got, st.DecodeErrors)
	}
	if n := net.Broker(starHub).Stats().MergedSummarySubs; n != 0 {
		t.Fatalf("hub merged %d subscriptions from a refused summary", n)
	}
}

// TestEffectiveOrderSorted checks the forwarding-preference invariant on
// several topologies: degree descending, id ascending on ties.
func TestEffectiveOrderSorted(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"cw24-highest", topology.CW24()},
		{"tree-highest", topology.Figure7Tree()},
		{"ring", topology.Ring(9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := New(Config{Topology: tc.g, Schema: stockSchema(t), Mode: interval.Lossy})
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			order := net.order.Nodes()
			if len(order) != tc.g.Len() {
				t.Fatalf("order has %d entries, want %d", len(order), tc.g.Len())
			}
			seen := make(map[topology.NodeID]bool, len(order))
			deg := tc.g.Degree
			for i := 1; i < len(order); i++ {
				a, b := order[i-1], order[i]
				if deg(a) < deg(b) || (deg(a) == deg(b) && a >= b) {
					t.Fatalf("order[%d..%d] = %d(deg %d), %d(deg %d): not (degree desc, id asc)",
						i-1, i, a, deg(a), b, deg(b))
				}
			}
			for _, id := range order {
				if seen[id] {
					t.Fatalf("duplicate node %d in order", id)
				}
				seen[id] = true
			}
		})
	}
}

// ownerIDKeys builds the ascending id keys of one owner.
func ownerIDKeys(owner subid.BrokerID, locals ...uint32) []uint64 {
	keys := make([]uint64, len(locals))
	for i, l := range locals {
		keys[i] = subid.ID{Broker: owner, Local: subid.LocalID(l)}.Key()
	}
	return keys
}

// TestDeliverPayloadsEncodeEachEventOnce drives seeded multi-event,
// multi-owner runs through one reused runScratch, chaining each event's
// owners in an order of their own: drainOwners must visit exactly the
// run's owners, ascending, and every owner's message must encode
// byte-identical to appendDeliverRecord's records in event order, with the
// run's own events, and be counted at that length. Some runs name an owner
// beyond what the scratch has grown to, and every run must start with
// every chain empty.
func TestDeliverPayloadsEncodeEachEventOnce(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(14))
	symbols := []string{"OTE", "IBM", "AAA"}
	var sc runScratch
	multi, reordered, grown := 0, 0, 0
	for run := 0; run < 300; run++ {
		k := 1 + rng.Intn(8)
		traceID := uint64(0)
		if k == 1 && rng.Intn(2) == 0 {
			traceID = uint64(run + 1)
		}
		// Owners 0–5, and now and then one far past them.
		owners := []uint64{0, 1, 2, 3, 4, 5}
		if rng.Intn(10) == 0 {
			owners = append(owners, uint64(len(sc.heads)+rng.Intn(300)))
		}
		if slices.ContainsFunc(sc.owners, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("run %d starts with chains of owners %v", run, sc.owners.Bits())
		}
		sc.startRun()
		res := make([][]uint64, k)
		want := map[int][]byte{}            // per owner, the oracle bytes
		events := map[int][]*schema.Event{} // per owner, the events in record order
		perEvent := map[int]int{}           // per sent event, its records
		for i := 0; i < k; i++ {
			ev, err := schema.ParseEvent(s, fmt.Sprintf("symbol=%s price=%d volume=%d",
				symbols[rng.Intn(len(symbols))], rng.Intn(1000), rng.Intn(1<<20)))
			if err != nil {
				t.Fatal(err)
			}
			sc.events = append(sc.events, ev)
			for _, owner := range owners {
				if rng.Intn(3) != 0 {
					continue
				}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					res[i] = append(res[i], owner<<32|uint64(rng.Intn(500)))
				}
			}
			slices.Sort(res[i])
			res[i] = slices.Compact(res[i])
			type send struct{ owner, lo, hi int }
			var sends []send
			for lo, hi := 0, 0; lo < len(res[i]); lo = hi {
				hi = ownerRunEnd(res[i], lo)
				if rng.Intn(4) != 0 { // else: owner already delivered, or local
					sends = append(sends, send{int(res[i][lo] >> 32), lo, hi})
				}
			}
			for _, snd := range sends {
				want[snd.owner] = appendDeliverRecord(want[snd.owner], traceID, res[i][snd.lo:snd.hi], ev)
				events[snd.owner] = append(events[snd.owner], ev)
				perEvent[i]++
			}
			// The routing walk meets an event's owners in match order; chain
			// them in any order, which must not change a message.
			rng.Shuffle(len(sends), func(a, b int) { sends[a], sends[b] = sends[b], sends[a] })
			if !slices.IsSortedFunc(sends, func(a, b send) int { return a.owner - b.owner }) {
				reordered++
			}
			for _, snd := range sends {
				if len(sc.heads) > 0 && snd.owner >= len(sc.heads) {
					grown++
				}
				sc.chain(snd.owner, i, snd.lo, snd.hi)
			}
		}
		var visited []int
		sc.drainOwners(func(owner int) {
			visited = append(visited, owner)
			d := &deliverMsg{traceID: traceID}
			sc.appendChain(d, res, owner)
			got := make([]*schema.Event, len(d.recs))
			for i, r := range d.recs {
				got[i] = r.ev
			}
			if !slices.Equal(got, events[owner]) {
				t.Fatalf("run %d, owner %d: records of events %v, want %v", run, owner, got, events[owner])
			}
			if b := encodeDeliverMsg(nil, d); !bytes.Equal(b, want[owner]) {
				t.Fatalf("run %d, owner %d: message %x, want %x", run, owner, b, want[owner])
			}
			if size := deliverMsgSize(d); size != len(want[owner]) {
				t.Fatalf("run %d, owner %d: size %d, wire form %d bytes", run, owner, size, len(want[owner]))
			}
		})
		var wantOwners []int
		for owner := range want {
			wantOwners = append(wantOwners, owner)
		}
		slices.Sort(wantOwners)
		if !slices.Equal(visited, wantOwners) {
			t.Fatalf("run %d: drained owners %v, want %v", run, visited, wantOwners)
		}
		for _, records := range perEvent {
			if records > 1 {
				multi++
			}
		}
	}
	if multi == 0 || reordered == 0 || grown == 0 {
		t.Fatalf("%d events went to two owners, %d chained owners out of order, %d owners grew the scratch; the test needs all three",
			multi, reordered, grown)
	}
}

// deliverFixture is the deliver-codec test vocabulary: an owner, three
// events and three id lists (a lone zero, a spread reaching the top of
// c2, a dense pair).
type deliverFixture struct {
	s     *schema.Schema
	owner subid.BrokerID
	evs   []*schema.Event
	ids   [][]uint64
}

func newDeliverFixture(t testing.TB) deliverFixture {
	t.Helper()
	f := deliverFixture{s: stockSchema(t), owner: 1}
	for _, text := range []string{"symbol=OTE price=8.40", "price=150", "exchange=NYSE symbol=IBM price=1 volume=7"} {
		ev, err := schema.ParseEvent(f.s, text)
		if err != nil {
			t.Fatal(err)
		}
		f.evs = append(f.evs, ev)
	}
	f.ids = [][]uint64{
		ownerIDKeys(f.owner, 0),
		ownerIDKeys(f.owner, 5, 6, 300, 70000, math.MaxUint32),
		ownerIDKeys(f.owner, 41, 42),
	}
	return f
}

// msg returns the message of the first k records under traceID.
func (f deliverFixture) msg(k int, traceID uint64) *deliverMsg {
	d := &deliverMsg{traceID: traceID}
	for i := 0; i < k; i++ {
		lo := len(d.keys)
		d.keys = append(d.keys, f.ids[i]...)
		d.recs = append(d.recs, deliverRecord{ev: f.evs[i], lo: lo, hi: len(d.keys)})
	}
	return d
}

// payload encodes the first k records under traceID.
func (f deliverFixture) payload(k int, traceID uint64) []byte {
	return encodeDeliverMsg(nil, f.msg(k, traceID))
}

// hostile returns deliver payloads a decoder must refuse, by name.
func (f deliverFixture) hostile() map[string][]byte {
	rec := func(ids []byte, tail ...byte) []byte {
		return append(append([]byte{0}, ids...), tail...)
	}
	ev := schema.EncodeEvent(nil, f.evs[0])
	valid := f.payload(1, 0)
	return map[string][]byte{
		"empty payload":              {},
		"count beyond bytes left":    rec(binary.AppendUvarint(nil, 200), 1, 2, 3),
		"huge count":                 rec(binary.AppendUvarint(nil, math.MaxUint64)),
		"zero count":                 rec([]byte{0}, ev...),
		"non-ascending ids":          rec([]byte{2, 5, 0}, ev...),
		"id above u32":               rec(append([]byte{1}, binary.AppendUvarint(nil, 1<<32)...), ev...),
		"running id above u32":       rec(append(append([]byte{2}, binary.AppendUvarint(nil, math.MaxUint32)...), 1), ev...),
		"truncated id list":          rec([]byte{2, 0x80, 0x80}),
		"padded uvarint":             rec([]byte{0x81, 0x00, 7}, ev...),
		"missing event":              rec([]byte{1, 7}),
		"truncated event":            valid[:len(valid)-3],
		"garbage after a record":     append(slices.Clone(valid), 0xFE),
		"traced with a zero id":      append([]byte{msgFlagTrace, 0, 0, 0, 0, 0, 0, 0, 0}, valid[1:]...),
		"second record is truncated": append(slices.Clone(valid), valid[:len(valid)-1]...),
		"second record traced":       append(slices.Clone(valid), f.payload(1, 9)...),
	}
}

// TestDeliverRecordRoundTrip: 1 and k records, traced and untraced, come
// back as the same (trace id, ids, event) records, re-encode to the same
// bytes, and are counted at their length.
func TestDeliverRecordRoundTrip(t *testing.T) {
	f := newDeliverFixture(t)
	for _, traceID := range []uint64{0, 9, 1 << 60} {
		for _, k := range []int{1, 3} {
			buf := f.payload(k, traceID)
			if size := deliverMsgSize(f.msg(k, traceID)); size != len(buf) {
				t.Fatalf("trace %d, %d records: size %d, wire form %d bytes", traceID, k, size, len(buf))
			}
			d, err := decodeDeliverMsg(f.s, buf, f.owner)
			if err != nil {
				t.Fatalf("trace %d, %d records: %v", traceID, k, err)
			}
			if d.traceID != traceID || len(d.recs) != k {
				t.Fatalf("trace %d, %d records: decoded trace %d, %d records", traceID, k, d.traceID, len(d.recs))
			}
			for i, r := range d.recs {
				if !slices.Equal(d.keys[r.lo:r.hi], f.ids[i]) {
					t.Fatalf("record %d ids = %v, want %v", i, d.keys[r.lo:r.hi], f.ids[i])
				}
				if got, want := r.ev.Format(f.s), f.evs[i].Format(f.s); got != want {
					t.Fatalf("record %d event = %s, want %s", i, got, want)
				}
			}
			if again := encodeDeliverMsg(nil, d); !bytes.Equal(again, buf) {
				t.Fatalf("trace %d, %d records: re-encoded %x, want %x", traceID, k, again, buf)
			}
		}
	}
	// The id list costs what it says: one count byte and one byte per
	// small delta.
	withIDs := len(appendDeliverRecord(nil, 0, f.ids[2], f.evs[0]))
	if bare := 1 + len(schema.EncodeEvent(nil, f.evs[0])); withIDs != bare+3 {
		t.Fatalf("record with two small ids is %d bytes, want %d", withIDs, bare+3)
	}
}

// TestHostileDeliverPayloads: the codec refuses every malformed deliver
// payload, and a deliver message whose body is not a delivery — those
// bytes, nil — is one KindDeliver decode error at the owner: never a
// panic, a delivery or a false-positive charge, and it does not poison the
// traffic behind it.
func TestHostileDeliverPayloads(t *testing.T) {
	f := newDeliverFixture(t)
	net := newNetwork(t, topology.Star(3), f.s)
	sub, err := schema.ParseSubscription(f.s, `price > 0`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	id, err := net.Subscribe(topology.NodeID(f.owner), sub, c.deliver(f.s))
	if err != nil {
		t.Fatal(err)
	}
	hostile := f.hostile()
	bodies := []any{nil, (*deliverMsg)(nil), f.payload(1, 0)}
	for name, payload := range hostile {
		if _, err := decodeDeliverMsg(f.s, payload, f.owner); err == nil {
			t.Errorf("%s: decoded", name)
		}
		bodies = append(bodies, payload)
	}
	for _, body := range bodies {
		if err := net.bus.Send(netsim.Message{From: 0, To: topology.NodeID(f.owner), Kind: netsim.KindDeliver, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	st := net.Stats()
	if got := st.DecodeErrors[netsim.KindDeliver]; got != int64(len(bodies)) || st.TotalErrors() != got {
		t.Fatalf("deliver decode errors = %d of %d total, want %d of %d", got, st.TotalErrors(), len(bodies), len(bodies))
	}
	if c.count() != 0 || net.attrib.Report(0).Total != 0 {
		t.Fatalf("hostile bodies caused %d deliveries, %d charges", c.count(), net.attrib.Report(0).Total)
	}
	good := &deliverMsg{recs: []deliverRecord{{ev: f.evs[0], lo: 0, hi: 1}}, keys: []uint64{id.Key()}}
	if err := net.bus.Send(netsim.Message{From: 0, To: topology.NodeID(f.owner), Kind: netsim.KindDeliver, Body: good, Size: deliverMsgSize(good)}); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 1 {
		t.Fatalf("deliveries after the hostile bodies = %d, want 1", c.count())
	}
}

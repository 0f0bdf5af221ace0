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
		got, n, err := decodeMask(nil, buf, 64*words)
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
	if _, _, err := decodeMask(nil, nil, 128); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if _, _, err := decodeMask(nil, []byte{1}, 128); err == nil {
		t.Fatal("1-byte buffer accepted")
	}
	// Header claims 2 words but only one follows.
	buf, err := encodeMask(nil, make(subid.Mask, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeMask(nil, buf[:len(buf)-1], 128); err == nil {
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
				_, _, err = decodeMask(nil, buf, brokers)
				if stray := bit >= brokers; stray != (err != nil) {
					t.Fatalf("%d brokers, %d words, bit %d: err = %v", brokers, words, bit, err)
				}
			}
		}
	}
}

// TestStrayBrocliBitIsCounted: an event whose BROCLI names brokers that do
// not exist used to count as "every broker examined" and retire the walk as
// suppressed — the matching subscription at broker 2 heard nothing and no
// counter moved. It is a decode error where it arrives. Star(3), no
// Propagate, so the walk from broker 1 has to reach broker 2 itself.
func TestStrayBrocliBitIsCounted(t *testing.T) {
	s := stockSchema(t)
	ev := mustEvent(t, s, "price=150")
	stray := subid.NewMask(128)
	for _, bit := range []int{64, 65, 66} {
		stray.Set(bit)
	}
	for _, tc := range []struct {
		name              string
		brocli, delivered subid.Mask
		deliveries        int
		routed, forwarded int64
		decodeErrors      int64
	}{
		{"clean", subid.NewMask(3), subid.NewMask(3), 1, 3, 2, 0},
		{"stray BROCLI bits", stray, subid.NewMask(3), 0, 0, 0, 1},
		{"stray delivered bits", subid.NewMask(3), stray, 0, 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newNetwork(t, topology.Star(3), s)
			var c collector
			if _, err := net.Subscribe(starOther, mustSub(t, s, `price > 100`), c.deliver(s)); err != nil {
				t.Fatal(err)
			}
			payload, err := encodeEventMsg(nil, ev, tc.brocli, tc.delivered, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.bus.Send(netsim.Message{From: starOwner, To: starOwner, Kind: netsim.KindEvent, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			net.Flush()
			st := net.Stats()
			routed := net.Metrics().Counter("events_routed").Value()
			forwarded := net.Metrics().Counter("events_forwarded").Value()
			if c.count() != tc.deliveries || routed != tc.routed || forwarded != tc.forwarded ||
				st.DecodeErrors[netsim.KindEvent] != tc.decodeErrors || st.TotalErrors() != tc.decodeErrors {
				t.Fatalf("deliveries = %d, routed %d, forwarded %d, decode errors %v, TotalErrors = %d; want %d, %d, %d, %d",
					c.count(), routed, forwarded, st.DecodeErrors, st.TotalErrors(),
					tc.deliveries, tc.routed, tc.forwarded, tc.decodeErrors)
			}
		})
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
		if err := net.bus.Send(netsim.Message{From: starOther, To: starHub, Kind: netsim.KindSummary, Payload: payload}); err != nil {
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
	if err := net.bus.Send(netsim.Message{From: starOther, To: starHub, Kind: netsim.KindSummary, Payload: payload}); err != nil {
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
			order := net.order
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

// appendDeliverRecord appends one whole deliver record to buf, encoding
// the event in place: the per-record encoder sendDelivers replaced with
// its encode-once run scratch, kept as the oracle of those bytes.
func appendDeliverRecord(buf []byte, traceID uint64, keys []uint64, ev *schema.Event) []byte {
	return schema.EncodeEvent(appendDeliverHead(buf, traceID, keys), ev)
}

// TestDeliverPayloadsEncodeEachEventOnce drives seeded multi-event,
// multi-owner runs through one reused runScratch, chaining each event's
// owners in an order of their own: drainOwners must visit exactly the
// run's owners, ascending, and every owner's payload must be
// byte-identical to appendDeliverRecord's, record by record in event
// order, with the records' events attached in that order — while each
// sent event is encoded once per run however many owners it goes to. Some
// runs name an owner beyond what the scratch has grown to, and every run
// must start with every chain empty.
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
		want := map[int][]byte{}    // per owner, the oracle payload
		attached := map[int][]any{} // per owner, the events in record order
		perEvent := map[int]int{}   // per sent event, its records
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
				attached[snd.owner] = append(attached[snd.owner], ev)
				perEvent[i]++
			}
			// The routing walk meets an event's owners in match order; chain
			// them in any order, which must not change a payload.
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
			var sb netsim.SharedBuf
			if n := sc.appendChain(&sb, traceID, res, owner); n != len(attached[owner]) {
				t.Fatalf("run %d, owner %d: %d records, want %d", run, owner, n, len(attached[owner]))
			}
			if !bytes.Equal(sb.B, want[owner]) {
				t.Fatalf("run %d, owner %d: payload %x, want %x", run, owner, sb.B, want[owner])
			}
			if !slices.Equal(sb.Attached, attached[owner]) {
				t.Fatalf("run %d, owner %d: attached %v, want %v", run, owner, sb.Attached, attached[owner])
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
		size := 0
		for i, records := range perEvent {
			size += schema.EncodedEventSize(sc.events[i])
			if records > 1 {
				multi++
			}
		}
		if len(sc.enc) != size {
			t.Fatalf("run %d: encoded %d bytes for %d sent events of %d bytes", run, len(sc.enc), len(perEvent), size)
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

// payload encodes the first k records, the first under traceID.
func (f deliverFixture) payload(k int, traceID uint64) []byte {
	var buf []byte
	for i := 0; i < k; i++ {
		buf = appendDeliverRecord(buf, traceID, f.ids[i], f.evs[i])
		traceID = 0
	}
	return buf
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
	}
}

// TestDeliverRecordRoundTrip: 1 and k records, traced and untraced, come
// back as the same (trace id, ids, event) records, and re-encode to the
// same bytes.
func TestDeliverRecordRoundTrip(t *testing.T) {
	f := newDeliverFixture(t)
	for _, traceID := range []uint64{0, 9, 1 << 60} {
		for _, k := range []int{1, 3} {
			buf := f.payload(k, traceID)
			recs, keys, gotID, err := decodeDeliverMsg(f.s, buf, nil, f.owner, nil, nil)
			if err != nil {
				t.Fatalf("trace %d, %d records: %v", traceID, k, err)
			}
			if gotID != traceID || len(recs) != k {
				t.Fatalf("trace %d, %d records: decoded trace %d, %d records", traceID, k, gotID, len(recs))
			}
			var again []byte
			for i, r := range recs {
				if !slices.Equal(keys[r.lo:r.hi], f.ids[i]) {
					t.Fatalf("record %d ids = %v, want %v", i, keys[r.lo:r.hi], f.ids[i])
				}
				if got, want := r.ev.Format(f.s), f.evs[i].Format(f.s); got != want {
					t.Fatalf("record %d event = %s, want %s", i, got, want)
				}
				id := uint64(0)
				if i == 0 {
					id = gotID
				}
				again = appendDeliverRecord(again, id, keys[r.lo:r.hi], r.ev)
			}
			if !bytes.Equal(again, buf) {
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

// TestHostileDeliverPayloads: every malformed deliver payload is one
// KindDeliver decode error at the owner — never a panic, a delivery or a
// false-positive charge — and does not poison the traffic behind it.
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
	for name, payload := range hostile {
		if _, _, _, err := decodeDeliverMsg(f.s, payload, nil, f.owner, nil, nil); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if err := net.bus.Send(netsim.Message{From: 0, To: topology.NodeID(f.owner), Kind: netsim.KindDeliver, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	st := net.Stats()
	if got := st.DecodeErrors[netsim.KindDeliver]; got != int64(len(hostile)) || st.TotalErrors() != got {
		t.Fatalf("deliver decode errors = %d of %d total, want %d of %d", got, st.TotalErrors(), len(hostile), len(hostile))
	}
	if c.count() != 0 || net.attrib.Report(0).Total != 0 {
		t.Fatalf("hostile payloads caused %d deliveries, %d charges", c.count(), net.attrib.Report(0).Total)
	}
	good := appendDeliverRecord(nil, 0, []uint64{id.Key()}, f.evs[0])
	if err := net.bus.Send(netsim.Message{From: 0, To: topology.NodeID(f.owner), Kind: netsim.KindDeliver, Payload: good}); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 1 {
		t.Fatalf("deliveries after the hostile payloads = %d, want 1", c.count())
	}
}

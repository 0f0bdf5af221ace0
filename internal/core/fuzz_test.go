package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// FuzzLoadSnapshot: the snapshot loader must never panic on malformed
// bytes, and must fully reject or fully load.
func FuzzLoadSnapshot(f *testing.F) {
	s := schema.MustNew(schema.Attribute{Name: "x", Type: schema.TypeFloat})
	g := topology.Ring(3)
	net, err := New(Config{Topology: g, Schema: s})
	if err != nil {
		f.Fatal(err)
	}
	sub, _ := schema.ParseSubscription(s, `x > 1`)
	if _, err := net.Subscribe(0, sub, func(subid.ID, *schema.Event) {}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	net.Close()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		factory := func(subid.ID, *schema.Subscription) broker.DeliveryFunc {
			return func(subid.ID, *schema.Event) {}
		}
		restored, err := LoadSnapshot(bytes.NewReader(data), Config{Topology: topology.Ring(3)}, factory)
		if err != nil {
			return
		}
		restored.Close()
	})
}

// sameButFieldOrder reports whether a re-encoded message equals the bytes
// it was decoded from, where its trailing packed event may have arrived
// with its fields in another order: DecodeEvent accepts that and sorts
// them, and it is the one thing the in-process decoders accept that the
// encoders do not write. Everything before the event must be identical.
func sameButFieldOrder(s *schema.Schema, wire, again []byte, ev *schema.Event) bool {
	cut := len(again) - len(schema.EncodeEvent(nil, ev))
	if len(wire) != len(again) || !bytes.Equal(wire[:cut], again[:cut]) {
		return false
	}
	if bytes.Equal(wire[cut:], again[cut:]) {
		return true
	}
	got, _, err := schema.DecodeEvent(s, wire[cut:])
	return err == nil && got.Format(s) == ev.Format(s)
}

// FuzzDecodeDeliverMsg: the oracle's deliver decoder never panics, and a
// payload that decodes re-encodes, record by record, to the bytes it came
// from, which are as many as deliverMsgSize counts.
func FuzzDecodeDeliverMsg(f *testing.F) {
	fx := newDeliverFixture(f)
	f.Add(fx.payload(1, 0))
	f.Add(fx.payload(1, 77))
	f.Add(fx.payload(3, 0))
	for _, payload := range fx.hostile() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeDeliverMsg(fx.s, data, fx.owner)
		if err != nil {
			return
		}
		if len(d.recs) == 0 {
			t.Fatal("decoded a payload of no records")
		}
		if size := deliverMsgSize(d); size != len(data) {
			t.Fatalf("decoded %d bytes into a message of size %d", len(data), size)
		}
		rest := data
		for i, r := range d.recs {
			keys := d.keys[r.lo:r.hi]
			if len(keys) == 0 || !slices.IsSorted(keys) {
				t.Fatalf("record %d: ids %v are not a non-empty ascending list", i, keys)
			}
			_, _, id, n, err := decodeDeliverRecord(fx.s, rest, fx.owner, nil)
			if err != nil || id != d.traceID {
				t.Fatalf("record %d: decoded alone: trace %d, %v", i, id, err)
			}
			again := appendDeliverRecord(nil, id, keys, r.ev)
			if !sameButFieldOrder(fx.s, rest[:n], again, r.ev) {
				t.Fatalf("record %d: %x re-encodes to %x", i, rest[:n], again)
			}
			rest = rest[n:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after the last record", len(rest))
		}
	})
}

// FuzzDecodeEventMsg: the oracle's event decoder never panics, and a
// payload that decodes re-encodes to the bytes it came from, which are as
// many as eventMsgSize counts.
func FuzzDecodeEventMsg(f *testing.F) {
	fx := newDeliverFixture(f)
	for i, traceID := range []uint64{0, 77, 0} {
		m := &eventMsg{ev: fx.evs[i], brocli: subid.NewMask(3), delivered: subid.NewMask(3), traceID: traceID}
		m.brocli.Set(i)
		m.delivered.Set(2 - i)
		msg, err := encodeEventMsg(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
		f.Add(msg[:len(msg)-2])                 // truncated event
		f.Add(append(msg, 0))                   // bytes after the event
		f.Add(append([]byte{0xFE}, msg[1:]...)) // unknown flags
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0xFF, 0xFF}) // mask word count beyond the bytes left
	stray := subid.NewMask(128)  // names brokers 64–66 of a three-broker network
	stray[1] = 7
	for _, masks := range [][2]subid.Mask{{stray, subid.NewMask(3)}, {subid.NewMask(3), stray}} {
		msg, err := encodeEventMsg(nil, &eventMsg{ev: fx.evs[0], brocli: masks[0], delivered: masks[1]})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeEventMsg(fx.s, data, 3)
		if err != nil {
			return
		}
		for _, mask := range []subid.Mask{m.brocli, m.delivered} {
			if bits := mask.Bits(); len(bits) > 0 && bits[len(bits)-1] >= 3 {
				t.Fatalf("decoded a mask naming broker %d of 3", bits[len(bits)-1])
			}
		}
		if size := eventMsgSize(m); size != len(data) {
			t.Fatalf("decoded %d bytes into a message of size %d", len(data), size)
		}
		again, err := encodeEventMsg(nil, m)
		if err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		if !sameButFieldOrder(fx.s, data, again, m.ev) {
			t.Fatalf("%x re-encodes to %x", data, again)
		}
	})
}

// FuzzMessageSize: eventMsgSize and deliverMsgSize are the lengths of the
// oracle's encodings, for messages built from fuzz input — masks of any
// word count the wire form allows, trace ids zero or not, ascending id
// lists with gaps up to the whole 32-bit local range, split into records
// at will, and strings up to the codec's 65 535-byte bound. A deliver
// message's wire form also decodes back to its ids.
func FuzzMessageSize(f *testing.F) {
	s := stockSchema(f)
	f.Add([]byte{}, uint64(0), uint16(1), uint16(1), uint16(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(77), uint16(0), uint16(maxMaskWords), uint16(math.MaxUint16))
	f.Add([]byte{0, 1, 0, 0, 0, 63, 0x80, 0, 0, 0, 1, 7, 7, 7, 7}, uint64(1<<63), uint16(300), uint16(4), uint16(math.MaxUint16-1))
	f.Fuzz(func(t *testing.T, data []byte, traceID uint64, brocliWords, delivWords, strLen uint16) {
		symbol, _ := s.ID("symbol")
		price, _ := s.ID("price")
		big, err := schema.EventFromFields(s, []schema.Field{
			{Attr: symbol, Value: schema.StringValue(strings.Repeat("S", int(strLen)))},
			{Attr: price, Value: schema.FloatValue(float64(len(data)))},
		})
		if err != nil {
			t.Fatal(err)
		}
		small, err := schema.EventFromFields(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		mask := func(words uint16) subid.Mask {
			m := make(subid.Mask, words)
			for i := range m {
				if len(data) > 0 {
					m[i] = uint64(data[i%len(data)]) << (i % 57)
				}
			}
			return m
		}
		em := &eventMsg{ev: big, brocli: mask(brocliWords), delivered: mask(delivWords), traceID: traceID}
		b, err := encodeEventMsg(nil, em)
		if err != nil {
			t.Fatal(err)
		}
		if size := eventMsgSize(em); size != len(b) {
			t.Fatalf("event message: size %d, wire form %d bytes", size, len(b))
		}
		// Five bytes per id: a flag byte (bit 0 starts a new record, the
		// rest shift the gap) and a 32-bit gap to the previous id.
		const owner = subid.BrokerID(5)
		d := &deliverMsg{traceID: traceID}
		local := uint64(0)
		for i := 0; i+5 <= len(data); i += 5 {
			gap := uint64(binary.LittleEndian.Uint32(data[i+1:])) >> (data[i] >> 1 & 31)
			if len(d.keys) > 0 {
				gap = max(gap, 1)
			}
			if local+gap > math.MaxUint32 {
				break
			}
			local += gap
			if len(d.recs) == 0 || data[i]&1 != 0 {
				ev := big
				if len(d.recs)%2 == 1 {
					ev = small
				}
				d.recs = append(d.recs, deliverRecord{ev: ev, lo: len(d.keys), hi: len(d.keys)})
				local = gap // a record's list starts afresh
			}
			d.keys = append(d.keys, subid.ID{Broker: owner, Local: subid.LocalID(local)}.Key())
			d.recs[len(d.recs)-1].hi = len(d.keys)
		}
		if len(d.recs) == 0 {
			return
		}
		b = encodeDeliverMsg(nil, d)
		if size := deliverMsgSize(d); size != len(b) {
			t.Fatalf("deliver message: size %d, wire form %d bytes", size, len(b))
		}
		back, err := decodeDeliverMsg(s, b, owner)
		if err != nil || !slices.Equal(back.keys, d.keys) || len(back.recs) != len(d.recs) {
			t.Fatalf("deliver message of ids %v decodes to %v (%v)", d.keys, back, err)
		}
	})
}

// FuzzDecodeSummaryMsg takes a summary payload apart the way handleSummary
// does — epoch header, Merged_Brokers mask, then the packed summary folded
// in with MergeEncoded — and never panics; a header and mask that decode
// re-encode to the bytes they came from, so unknown flag bits, a
// zero-length or padded epoch and a truncated mask are all errors.
func FuzzDecodeSummaryMsg(f *testing.F) {
	s := stockSchema(f)
	own := summary.New(s, interval.Lossy)
	for i, text := range []string{`price > 10`, `symbol = IBM && volume < 500`} {
		sub, err := schema.ParseSubscription(s, text)
		if err != nil {
			f.Fatal(err)
		}
		if err := own.Insert(subid.ID{Broker: 1, Local: subid.LocalID(i)}, sub); err != nil {
			f.Fatal(err)
		}
	}
	retracting := own.Clone()
	retracting.RemoveKey(subid.ID{Broker: 1, Local: 0}.Key())
	set := subid.NewMask(70) // two words
	set.Set(1)
	set.Set(69)
	for _, seed := range []struct {
		sum      *summary.Summary
		epoch    uint64
		fullSync bool
	}{{own, 1, false}, {own, 300, true}, {retracting, 2, false}} {
		msg, err := encodeSummaryMsg(nil, seed.sum, set, seed.epoch, seed.fullSync)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
		f.Add(msg[:len(msg)-3])                 // truncated summary
		f.Add(msg[:10])                         // truncated mask
		f.Add(append([]byte{0xF0}, msg[1:]...)) // unknown flags
	}
	f.Add([]byte{})
	f.Add([]byte{0})                // no epoch
	f.Add([]byte{0, 0x81, 0, 0, 0}) // padded epoch
	f.Add([]byte{0, 1, 0xFF, 0xFF}) // mask word count beyond the bytes left
	beyond := subid.NewMask(128)
	beyond.Set(70) // the fuzz target decodes for 70 brokers
	if msg, err := encodeSummaryMsg(nil, own, beyond, 1, false); err != nil {
		f.Fatal(err)
	} else {
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, n0, err := decodeSummaryHeader(data)
		if err != nil {
			return
		}
		set, n1, err := decodeMask(data[n0:], 70)
		if err != nil {
			return
		}
		if bits := set.Bits(); len(bits) > 0 && bits[len(bits)-1] >= 70 {
			t.Fatalf("decoded a Merged_Brokers set naming broker %d of 70", bits[len(bits)-1])
		}
		again, err := encodeMask(appendSummaryHeader(nil, h), set)
		if err != nil || !bytes.Equal(again, data[:n0+n1]) {
			t.Fatalf("%x re-encodes to %x (%v)", data[:n0+n1], again, err)
		}
		// A rejected merge may leave a partial one behind (the dropped-
		// message equivalence), never a panic.
		_ = own.Clone().MergeEncoded(data[n0+n1:])
	})
}

package schema

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParseSubscriptionErrors(t *testing.T) {
	s := paperSchema(t)
	bad := []string{
		"",
		"price",
		"price <",
		"price < abc",
		"nosuch = 1",
		"price ? 1",
		"price < 1 2",
		"price < 1 && ",
		`exchange = "unterminated`,
		"volume > 1.5", // float literal for int attribute
		"price >* 8.4", // string op on arithmetic attribute
	}
	for _, in := range bad {
		if _, err := ParseSubscription(s, in); err == nil {
			t.Errorf("ParseSubscription(%q) accepted", in)
		}
	}
}

func TestParseSubscriptionQuotedValues(t *testing.T) {
	s := paperSchema(t)
	sub, err := ParseSubscription(s, `symbol = "A B && C"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Constraints[0].Value.Str; got != "A B && C" {
		t.Fatalf("quoted value = %q", got)
	}
	if sub.Constraints[0].Op != OpEQ {
		t.Fatalf("op = %v, want OpEQ", sub.Constraints[0].Op)
	}
}

func TestParseSubscriptionStarEqualityCanonicalized(t *testing.T) {
	s := paperSchema(t)
	cases := []struct {
		in string
		op Op
	}{
		{`symbol = "OT*"`, OpPrefix},
		{`symbol = "*SE"`, OpSuffix},
		{`symbol = "*YS*"`, OpContains},
		{`symbol = "N*SE"`, OpGlob},
	}
	for _, c := range cases {
		sub, err := ParseSubscription(s, c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if sub.Constraints[0].Op != c.op {
			t.Errorf("%q: op = %v, want %v", c.in, sub.Constraints[0].Op, c.op)
		}
	}
}

func TestParseEventErrors(t *testing.T) {
	s := paperSchema(t)
	bad := []string{
		"",
		"price",
		"price<8",
		"price=8.4 price=8.5",
		"nosuch=1",
		"price=abc",
	}
	for _, in := range bad {
		if _, err := ParseEvent(s, in); err == nil {
			t.Errorf("ParseEvent(%q) accepted", in)
		}
	}
}

func TestParseEventSeparators(t *testing.T) {
	s := paperSchema(t)
	a, err := ParseEvent(s, "price=8.4, volume=10")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseEvent(s, "price=8.4\nvolume=10")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Fields(), b.Fields()) {
		t.Fatal("comma and newline separators differ")
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	s := paperSchema(t)
	ev, err := ParseEvent(s, `exchange=NYSE symbol=OTE price=8.40 volume=132700`)
	if err != nil {
		t.Fatal(err)
	}
	buf := EncodeEvent(nil, ev)
	got, n, err := DecodeEvent(s, buf)
	if err != nil {
		t.Fatalf("DecodeEvent: %v", err)
	}
	if n != len(buf) || EncodedEventSize(ev) != len(buf) {
		t.Fatalf("consumed %d, EncodedEventSize %d, of %d bytes", n, EncodedEventSize(ev), len(buf))
	}
	if empty := (&Event{}); EncodedEventSize(empty) != len(EncodeEvent(nil, empty)) {
		t.Fatalf("EncodedEventSize of the empty event = %d", EncodedEventSize(empty))
	}
	// Every constructor fixes the size: built from fields, and decoded
	// from fields out of order.
	fields := ev.Fields()
	reversed := []Field{fields[3], fields[2], fields[1], fields[0]}
	built, err := EventFromFields(s, reversed)
	if err != nil {
		t.Fatal(err)
	}
	unsorted := binary.LittleEndian.AppendUint16(nil, uint16(len(reversed)))
	for _, f := range reversed {
		unsorted = appendValue(binary.LittleEndian.AppendUint16(unsorted, uint16(f.Attr)), f.Value)
	}
	decoded, _, err := DecodeEvent(s, unsorted)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Event{got, built, decoded} {
		if EncodedEventSize(e) != len(buf) {
			t.Fatalf("EncodedEventSize %d, want %d", EncodedEventSize(e), len(buf))
		}
	}
	if !reflect.DeepEqual(got.Fields(), ev.Fields()) {
		t.Fatalf("round trip mismatch: %v vs %v", got.Fields(), ev.Fields())
	}
}

func TestSubscriptionCodecRoundTrip(t *testing.T) {
	s := paperSchema(t)
	sub, err := ParseSubscription(s, `exchange = "N*SE" && symbol >* OT && price < 8.70 && volume > 130000`)
	if err != nil {
		t.Fatal(err)
	}
	buf := EncodeSubscription(nil, sub)
	got, n, err := DecodeSubscription(s, buf)
	if err != nil {
		t.Fatalf("DecodeSubscription: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if !reflect.DeepEqual(got.Constraints, sub.Constraints) {
		t.Fatalf("round trip mismatch:\n%v\n%v", got.Constraints, sub.Constraints)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	s := paperSchema(t)
	sub, _ := ParseSubscription(s, `price < 8.70`)
	buf := EncodeSubscription(nil, sub)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeSubscription(s, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	ev, _ := ParseEvent(s, `price=8.4`)
	ebuf := EncodeEvent(nil, ev)
	for cut := 0; cut < len(ebuf); cut++ {
		if _, _, err := DecodeEvent(s, ebuf[:cut]); err == nil {
			t.Fatalf("event truncation at %d accepted", cut)
		}
	}
	// Corrupt type byte.
	bad := append([]byte(nil), ebuf...)
	bad[4] = 0xFF
	if _, _, err := DecodeEvent(s, bad); err == nil {
		t.Fatal("corrupt value type accepted")
	}
}

// wireFields hand-packs an event in the given field order — EncodeEvent
// only ever writes ascending attribute ids.
func wireFields(fields ...Field) []byte {
	buf := binary.LittleEndian.AppendUint16(nil, uint16(len(fields)))
	for _, f := range fields {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(f.Attr))
		buf = appendValue(buf, f.Value)
	}
	return buf
}

// TestDecodeEventFieldOrder covers both decode paths: ascending input is
// taken as it stands, any other order goes through EventFromFields and
// comes out sorted, and both refuse the same bad events.
func TestDecodeEventFieldOrder(t *testing.T) {
	s := paperSchema(t)
	ev, err := ParseEvent(s, `exchange=NYSE symbol=OTE price=8.40 volume=132700`)
	if err != nil {
		t.Fatal(err)
	}
	sorted := ev.Fields()
	shuffled := []Field{sorted[2], sorted[0], sorted[3], sorted[1]}
	for name, wire := range map[string][]byte{"ascending": wireFields(sorted...), "shuffled": wireFields(shuffled...)} {
		got, n, err := DecodeEvent(s, wire)
		if err != nil || n != len(wire) {
			t.Fatalf("%s: consumed %d of %d bytes, err %v", name, n, len(wire), err)
		}
		if !reflect.DeepEqual(got.Fields(), sorted) {
			t.Fatalf("%s: decoded %v, want %v", name, got.Fields(), sorted)
		}
	}
	price, volume := sorted[2], sorted[3]
	for name, wire := range map[string][]byte{
		"adjacent duplicate":        wireFields(price, price),
		"duplicate after a gap":     wireFields(price, volume, price),
		"string for a float":        wireFields(Field{Attr: price.Attr, Value: StringValue("x")}),
		"int for a float, shuffled": wireFields(volume, Field{Attr: price.Attr, Value: IntValue(8)}),
		"attribute out of range":    wireFields(price, Field{Attr: AttrID(s.Len()), Value: IntValue(1)}),
	} {
		if _, _, err := DecodeEvent(s, wire); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeEventBoundsPreallocation: the field count is the sender's
// claim, so what it makes the decoder allocate is bounded by the bytes
// that came with it — two bytes claiming 65 535 fields used to reserve
// room for all of them.
func TestDecodeEventBoundsPreallocation(t *testing.T) {
	s := paperSchema(t)
	claim := []byte{0xFF, 0xFF}
	if _, _, err := DecodeEvent(s, claim); err == nil {
		t.Fatal("an event of 65535 fields and no bytes decoded")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 16; i++ {
		_, _, _ = DecodeEvent(s, claim) // the error is checked above
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / 16; got > 4096 {
		t.Fatalf("a 2-byte message made DecodeEvent allocate %d bytes", got)
	}
}

// TestCodecRandomRoundTrip fuzzes the codec with randomly generated valid
// events and subscriptions.
func TestCodecRandomRoundTrip(t *testing.T) {
	s := paperSchema(t)
	rng := rand.New(rand.NewSource(3))
	attrs := s.Attributes()
	for iter := 0; iter < 500; iter++ {
		var fields []Field
		for id, a := range attrs {
			if rng.Intn(2) == 0 {
				continue
			}
			var v Value
			switch a.Type {
			case TypeString:
				v = StringValue(randWord(rng))
			case TypeInt:
				v = IntValue(int64(rng.Intn(10000)))
			case TypeFloat:
				v = FloatValue(float64(rng.Intn(1000)) / 8)
			case TypeDate:
				v = Value{Type: TypeDate, Num: float64(rng.Intn(1 << 30))}
			}
			fields = append(fields, Field{Attr: AttrID(id), Value: v})
		}
		if len(fields) == 0 {
			continue
		}
		ev, err := EventFromFields(s, fields)
		if err != nil {
			t.Fatal(err)
		}
		buf := EncodeEvent(nil, ev)
		got, _, err := DecodeEvent(s, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Fields(), ev.Fields()) {
			t.Fatal("random event round trip mismatch")
		}
	}
}

func randWord(rng *rand.Rand) string {
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	n := 1 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// TestCheckEvent: an event passes its own schema's check, and fails one
// that lacks an attribute it names or types it otherwise, as well as a
// string the codec's 16-bit length cannot carry, and nil.
func TestCheckEvent(t *testing.T) {
	s := paperSchema(t)
	ev, err := ParseEvent(s, `exchange=NYSE symbol=OTE price=8.40 volume=132700`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckEvent(ev); err != nil {
		t.Fatalf("own event refused: %v", err)
	}
	narrow := MustNew(Attribute{Name: "exchange", Type: TypeString})
	attrs := s.Attributes()
	attrs[3].Type = TypeInt // price
	retyped := MustNew(attrs...)
	long, err := EventFromFields(s, []Field{{Attr: 0, Value: StringValue(string(make([]byte, 1<<16)))}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Schema
		ev   *Event
	}{
		{"attribute beyond the schema", narrow, ev},
		{"attribute of another type", retyped, ev},
		{"string beyond the codec", s, long},
		{"nil", s, nil},
	} {
		if err := tc.s.CheckEvent(tc.ev); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestStringsBoundedByCodec: every codec writes a string's length in 16
// bits, so a subscription constant or an attribute name of 65 536 bytes
// is refused where it enters — ParseSubscription (the wire subscribe op),
// NewSubscription and Schema.Add (the wire extend op) — and one of 65 535
// bytes is taken, and survives the subscription codec.
func TestStringsBoundedByCodec(t *testing.T) {
	s := paperSchema(t)
	for _, n := range []int{math.MaxUint16, math.MaxUint16 + 1} {
		text := strings.Repeat("X", n)
		fits := n <= math.MaxUint16
		sub, err := ParseSubscription(s, "symbol = "+text)
		if (err == nil) != fits {
			t.Errorf("ParseSubscription of a %d-byte constant: err = %v", n, err)
		}
		symbol, _ := s.ID("symbol")
		if _, err := NewSubscription(s, Constraint{Attr: symbol, Op: OpPrefix, Value: StringValue(text)}); (err == nil) != fits {
			t.Errorf("NewSubscription of a %d-byte prefix: err = %v", n, err)
		}
		if _, err := s.Add(text, TypeInt); (err == nil) != fits {
			t.Errorf("Schema.Add of a %d-byte name: err = %v", n, err)
		}
		if !fits {
			continue
		}
		back, _, err := DecodeSubscription(s, EncodeSubscription(nil, sub))
		if err != nil || back.Constraints[0].Value.Str != text {
			t.Fatalf("a %d-byte constant through the subscription codec: err = %v", n, err)
		}
	}
}

package schema

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// paperSchema returns the stock-market schema of the paper's Figure 2.
func paperSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := New(
		Attribute{Name: "exchange", Type: TypeString},
		Attribute{Name: "symbol", Type: TypeString},
		Attribute{Name: "when", Type: TypeDate},
		Attribute{Name: "price", Type: TypeFloat},
		Attribute{Name: "volume", Type: TypeInt},
		Attribute{Name: "high", Type: TypeFloat},
		Attribute{Name: "low", Type: TypeFloat},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestSchemaAddAndLookup(t *testing.T) {
	s := paperSchema(t)
	if got := s.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
	id, ok := s.ID("price")
	if !ok || id != 3 {
		t.Fatalf("ID(price) = %d,%v; want 3,true", id, ok)
	}
	a, ok := s.Attr(id)
	if !ok || a.Name != "price" || a.Type != TypeFloat {
		t.Fatalf("Attr(3) = %+v,%v", a, ok)
	}
	if s.Name(99) != "attr99" {
		t.Fatalf("Name(99) = %q", s.Name(99))
	}
	if s.TypeOf(0) != TypeString || s.TypeOf(4) != TypeInt {
		t.Fatalf("TypeOf mismatch: %v %v", s.TypeOf(0), s.TypeOf(4))
	}
}

func TestSchemaRejectsDuplicatesAndInvalid(t *testing.T) {
	s := MustNew(Attribute{Name: "a", Type: TypeInt})
	if _, err := s.Add("a", TypeString); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := s.Add("", TypeInt); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Add("b", TypeInvalid); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := paperSchema(t)
	b := paperSchema(t)
	if !a.Equal(b) {
		t.Fatal("identical schemas not Equal")
	}
	c := MustNew(Attribute{Name: "exchange", Type: TypeString})
	if a.Equal(c) {
		t.Fatal("different schemas reported Equal")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustNew(
		Attribute{Name: "x", Type: TypeInt},
		Attribute{Name: "y", Type: TypeString},
	)
	want := "{x:int, y:string}"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestTypeParseRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeString, TypeInt, TypeFloat, TypeDate} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Error("ParseType accepted bogus type")
	}
}

func TestValueConstructorsAndValidity(t *testing.T) {
	cases := []struct {
		v     Value
		valid bool
		arith bool
	}{
		{StringValue("abc"), true, false},
		{StringValue(""), true, false},
		{IntValue(-7), true, true},
		{FloatValue(3.25), true, true},
		{DateValue(time.Unix(100, 0)), true, true},
		{FloatValue(float64(1) / 0.0000000000000000000000001), true, true},
		{Value{}, false, false},
	}
	for i, c := range cases {
		if c.v.Valid() != c.valid {
			t.Errorf("case %d: Valid = %v, want %v", i, c.v.Valid(), c.valid)
		}
		if c.v.Arithmetic() != c.arith {
			t.Errorf("case %d: Arithmetic = %v, want %v", i, c.v.Arithmetic(), c.arith)
		}
	}
}

func TestValueCompareAndEqual(t *testing.T) {
	if IntValue(3).Compare(FloatValue(3.5)) != -1 {
		t.Error("3 < 3.5 failed")
	}
	if FloatValue(4).Compare(IntValue(4)) != 0 {
		t.Error("4 == 4 failed across int/float")
	}
	if FloatValue(5).Compare(IntValue(4)) != 1 {
		t.Error("5 > 4 failed")
	}
	if !IntValue(4).Equal(FloatValue(4)) {
		t.Error("numeric Equal across types failed")
	}
	if StringValue("4").Equal(IntValue(4)) {
		t.Error("string/number Equal should be false")
	}
	if !StringValue("x").Equal(StringValue("x")) {
		t.Error("string Equal failed")
	}
}

func TestValueWireSize(t *testing.T) {
	if got := StringValue("NYSE").WireSize(); got != 4 {
		t.Fatalf("string wire size = %d, want 4", got)
	}
	if got := FloatValue(8.4).WireSize(); got != 4 {
		t.Fatalf("float wire size = %d, want 4 (paper s_st)", got)
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(TypeInt, "42")
	if err != nil || v.Num != 42 || v.Type != TypeInt {
		t.Fatalf("ParseValue int: %v %v", v, err)
	}
	if _, err := ParseValue(TypeInt, "4.2"); err == nil {
		t.Fatal("int parse accepted float text")
	}
	v, err = ParseValue(TypeFloat, "8.40")
	if err != nil || v.Num != 8.40 {
		t.Fatalf("ParseValue float: %v %v", v, err)
	}
	if _, err := ParseValue(TypeFloat, "NaN"); err == nil {
		t.Fatal("float parse accepted NaN")
	}
	v, err = ParseValue(TypeDate, "2003-07-01T12:05:25Z")
	if err != nil || v.Type != TypeDate {
		t.Fatalf("ParseValue date: %v %v", v, err)
	}
	v2, err := ParseValue(TypeDate, "1057061125")
	if err != nil || v2.Num != v.Num {
		t.Fatalf("ParseValue unix date: %v vs %v (%v)", v2, v, err)
	}
	if _, err := ParseValue(TypeInvalid, "x"); err == nil {
		t.Fatal("ParseValue accepted invalid type")
	}
}

func TestEventConstructionAndLookup(t *testing.T) {
	s := paperSchema(t)
	e, err := NewEvent(s, map[string]Value{
		"exchange": StringValue("NYSE"),
		"symbol":   StringValue("OTE"),
		"price":    FloatValue(8.40),
		"volume":   IntValue(132700),
		"high":     FloatValue(8.80),
		"low":      FloatValue(8.22),
	})
	if err != nil {
		t.Fatalf("NewEvent: %v", err)
	}
	if e.Len() != 6 {
		t.Fatalf("Len = %d, want 6", e.Len())
	}
	id, _ := s.ID("price")
	v, ok := e.Value(id)
	if !ok || v.Num != 8.40 {
		t.Fatalf("Value(price) = %v,%v", v, ok)
	}
	whenID, _ := s.ID("when")
	if e.Has(whenID) {
		t.Fatal("event should not have 'when'")
	}
	// Fields are sorted by attribute id.
	fs := e.Fields()
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Attr >= fs[i].Attr {
			t.Fatal("fields not sorted")
		}
	}
	if e.WireSize() <= 0 {
		t.Fatal("WireSize should be positive")
	}
	str := e.Format(s)
	if !strings.Contains(str, "price=8.4") || !strings.Contains(str, `exchange="NYSE"`) {
		t.Fatalf("Format = %s", str)
	}
}

func TestEventValidation(t *testing.T) {
	s := paperSchema(t)
	if _, err := NewEvent(s, map[string]Value{"nosuch": IntValue(1)}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := NewEvent(s, map[string]Value{"price": StringValue("x")}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := NewEvent(s, map[string]Value{"volume": FloatValue(1.5)}); err == nil {
		t.Fatal("float value for int attribute accepted")
	}
	priceID, _ := s.ID("price")
	if _, err := EventFromFields(s, []Field{
		{Attr: priceID, Value: FloatValue(1)},
		{Attr: priceID, Value: FloatValue(2)},
	}); err == nil {
		t.Fatal("duplicate field accepted")
	}
	if _, err := EventFromFields(s, []Field{{Attr: 100, Value: FloatValue(1)}}); err == nil {
		t.Fatal("out-of-range attribute accepted")
	}
}

func TestOpParseAndClassify(t *testing.T) {
	arith := []Op{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	str := []Op{OpEQ, OpNE, OpPrefix, OpSuffix, OpContains, OpGlob}
	for _, op := range arith {
		if !op.ArithmeticOp() {
			t.Errorf("%v should be arithmetic", op)
		}
	}
	for _, op := range str {
		if !op.StringOp() {
			t.Errorf("%v should be string", op)
		}
	}
	if OpPrefix.ArithmeticOp() || OpLT.StringOp() {
		t.Error("misclassified operator")
	}
	for _, tok := range []string{"=", "!=", "<", "<=", ">", ">=", ">*", "*<", "*", "~"} {
		op, err := ParseOp(tok)
		if err != nil {
			t.Errorf("ParseOp(%q): %v", tok, err)
			continue
		}
		if op.String() != tok {
			t.Errorf("ParseOp(%q).String() = %q", tok, op.String())
		}
	}
	if _, err := ParseOp("<<"); err == nil {
		t.Error("ParseOp accepted <<")
	}
}

func TestConstraintSatisfiedArithmetic(t *testing.T) {
	cases := []struct {
		op   Op
		cv   float64
		ev   float64
		want bool
	}{
		{OpEQ, 8.4, 8.4, true},
		{OpEQ, 8.4, 8.41, false},
		{OpNE, 8.4, 8.41, true},
		{OpNE, 8.4, 8.4, false},
		{OpLT, 8.7, 8.4, true},
		{OpLT, 8.7, 8.7, false},
		{OpLE, 8.7, 8.7, true},
		{OpGT, 8.3, 8.4, true},
		{OpGT, 8.3, 8.3, false},
		{OpGE, 8.3, 8.3, true},
	}
	for _, c := range cases {
		con := Constraint{Attr: 0, Op: c.op, Value: FloatValue(c.cv)}
		if got := con.Satisfied(FloatValue(c.ev)); got != c.want {
			t.Errorf("%v %v vs %v: got %v, want %v", c.op, c.cv, c.ev, got, c.want)
		}
	}
	// Cross-type: string event value never satisfies arithmetic constraint.
	con := Constraint{Attr: 0, Op: OpEQ, Value: FloatValue(1)}
	if con.Satisfied(StringValue("1")) {
		t.Error("string satisfied arithmetic constraint")
	}
}

func TestConstraintSatisfiedString(t *testing.T) {
	cases := []struct {
		op      Op
		pattern string
		ev      string
		want    bool
	}{
		{OpEQ, "OTE", "OTE", true},
		{OpEQ, "OTE", "OTEX", false},
		{OpNE, "OTE", "OTEX", true},
		{OpPrefix, "OT", "OTE", true},
		{OpPrefix, "OT", "NOT", false},
		{OpSuffix, "SE", "NYSE", true},
		{OpSuffix, "SE", "SEN", false},
		{OpContains, "YS", "NYSE", true},
		{OpContains, "YS", "NSE", false},
		{OpGlob, "m*t", "microsoft", true},
		{OpGlob, "m*t", "micronet", true},
		{OpGlob, "m*t", "microsoftx", false},
		{OpGlob, "N*SE", "NYSE", true},
	}
	for _, c := range cases {
		con := Constraint{Attr: 0, Op: c.op, Value: StringValue(c.pattern)}
		if got := con.Satisfied(StringValue(c.ev)); got != c.want {
			t.Errorf("%v %q vs %q: got %v, want %v", c.op, c.pattern, c.ev, got, c.want)
		}
	}
	con := Constraint{Attr: 0, Op: OpEQ, Value: StringValue("1")}
	if con.Satisfied(IntValue(1)) {
		t.Error("number satisfied string constraint")
	}
}

func TestConstraintValidate(t *testing.T) {
	s := paperSchema(t)
	priceID, _ := s.ID("price")
	symID, _ := s.ID("symbol")
	ok := Constraint{Attr: priceID, Op: OpLT, Value: FloatValue(8.7)}
	if err := ok.Validate(s); err != nil {
		t.Fatalf("valid constraint rejected: %v", err)
	}
	bad := []Constraint{
		{Attr: priceID, Op: OpPrefix, Value: FloatValue(8.7)}, // string op on arithmetic
		{Attr: symID, Op: OpLT, Value: StringValue("x")},      // arithmetic op on string
		{Attr: 200, Op: OpEQ, Value: FloatValue(1)},           // unknown attribute
		{Attr: priceID, Op: OpEQ, Value: StringValue("x")},    // wrong value type
		{Attr: symID, Op: OpEQ, Value: IntValue(1)},           // wrong value type
	}
	for i, c := range bad {
		if err := c.Validate(s); err == nil {
			t.Errorf("bad constraint %d accepted", i)
		}
	}
}

// TestPaperExample1 reproduces the paper's Example 1 end to end at the
// exact-matching level: the Figure 2 event matches Subscription 1 but not
// Subscription 2 of Figure 3.
func TestPaperExample1(t *testing.T) {
	s := paperSchema(t)
	sub1, err := ParseSubscription(s, `exchange = "N*SE" && symbol = OTE && price < 8.70 && price > 8.30`)
	if err != nil {
		t.Fatalf("sub1: %v", err)
	}
	sub2, err := ParseSubscription(s, `symbol >* OT && price = 8.20 && volume > 130000 && low < 8.05`)
	if err != nil {
		t.Fatalf("sub2: %v", err)
	}
	ev, err := ParseEvent(s, `exchange=NYSE symbol=OTE when=1057061125 price=8.40 volume=132700 high=8.80 low=8.22`)
	if err != nil {
		t.Fatalf("event: %v", err)
	}
	if !sub1.Matches(ev) {
		t.Error("Subscription 1 should match the Figure 2 event")
	}
	if sub2.Matches(ev) {
		t.Error("Subscription 2 should NOT match the Figure 2 event")
	}
	// Subscription 1 constrains 3 distinct attributes (exchange, symbol,
	// price — price twice), subscription 2 constrains 4.
	if n := sub1.NumAttrs(); n != 3 {
		t.Errorf("sub1 NumAttrs = %d, want 3", n)
	}
	if n := sub2.NumAttrs(); n != 4 {
		t.Errorf("sub2 NumAttrs = %d, want 4", n)
	}
}

func TestSubscriptionAttrSetSortedDistinct(t *testing.T) {
	s := paperSchema(t)
	sub, err := ParseSubscription(s, `price > 1 && volume > 2 && price < 9 && exchange = X`)
	if err != nil {
		t.Fatal(err)
	}
	got := sub.AttrSet()
	exID, _ := s.ID("exchange")
	prID, _ := s.ID("price")
	voID, _ := s.ID("volume")
	want := []AttrID{exID, prID, voID}
	if len(got) != len(want) {
		t.Fatalf("AttrSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AttrSet = %v, want %v", got, want)
		}
	}
}

func TestSubscriptionRequiresConstraint(t *testing.T) {
	s := paperSchema(t)
	if _, err := NewSubscription(s); err == nil {
		t.Fatal("empty subscription accepted")
	}
}

func TestSubscriptionMissingAttributeDoesNotMatch(t *testing.T) {
	s := paperSchema(t)
	sub, err := ParseSubscription(s, `low < 9.0`)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ParseEvent(s, `price=8.4`)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Matches(ev) {
		t.Fatal("subscription matched event missing its attribute")
	}
}

func TestSubscriptionFormatRoundTrip(t *testing.T) {
	s := paperSchema(t)
	in := `symbol >* "OT" && price > 8.30 && price < 8.70`
	sub, err := ParseSubscription(s, in)
	if err != nil {
		t.Fatal(err)
	}
	out := sub.Format(s)
	sub2, err := ParseSubscription(s, out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if sub2.Format(s) != out {
		t.Fatalf("format not stable: %q vs %q", sub2.Format(s), out)
	}
}

// TestSchemaGrowsUnderReaders is the Section 6 contract under -race:
// attributes are appended while other goroutines decode events and look
// attributes up, and an id handed out before a reader started never
// changes meaning, whichever generation the reader loads.
func TestSchemaGrowsUnderReaders(t *testing.T) {
	s := paperSchema(t)
	base := s.Attributes()
	ev, err := NewEvent(s, map[string]Value{"symbol": StringValue("OTE"), "price": FloatValue(8.40), "volume": IntValue(132700)})
	if err != nil {
		t.Fatal(err)
	}
	wire := EncodeEvent(nil, ev)

	const added = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := DecodeEvent(s, wire)
				if err != nil || !slices.Equal(got.Fields(), ev.Fields()) {
					t.Errorf("DecodeEvent mid-growth = %v, %v", got, err)
					return
				}
				n := s.Len()
				for id, want := range base {
					if a, ok := s.Attr(AttrID(id)); !ok || a != want || s.TypeOf(AttrID(id)) != want.Type {
						t.Errorf("Attr(%d) = %+v,%v mid-growth, want %+v", id, a, ok, want)
						return
					}
					if got, ok := s.ID(want.Name); !ok || int(got) != id {
						t.Errorf("ID(%q) = %d,%v mid-growth, want %d", want.Name, got, ok, id)
						return
					}
				}
				// Everything below a Len once observed stays resolvable.
				if n > len(base) {
					if a, ok := s.Attr(AttrID(n - 1)); !ok || a.Name != fmt.Sprintf("grown%d", n-1-len(base)) {
						t.Errorf("Attr(%d) = %+v,%v after Len reported %d", n-1, a, ok, n)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < added; i++ {
		id, err := s.Add(fmt.Sprintf("grown%d", i), TypeInt)
		if err != nil || int(id) != len(base)+i {
			t.Fatalf("Add #%d = %d, %v", i, id, err)
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != len(base)+added {
		t.Fatalf("Len = %d after %d adds, want %d", s.Len(), added, len(base)+added)
	}
}

// fmtEvent is the fmt-based rendering Format used before AppendFormat:
// the reference AppendFormat must match byte for byte.
func fmtEvent(e *Event, s *Schema) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range e.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", s.Name(f.Attr), fmtValue(f.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// fmtValue is Value.String before AppendText.
func fmtValue(v Value) string {
	switch v.Type {
	case TypeString:
		return strconv.Quote(v.Str)
	case TypeInt:
		return strconv.FormatInt(int64(v.Num), 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case TypeDate:
		return time.Unix(int64(v.Num), 0).UTC().Format(time.RFC3339)
	default:
		return "<invalid>"
	}
}

func TestAppendFormatMatchesFmt(t *testing.T) {
	s := paperSchema(t)
	strs := []string{"", "NYSE", `say "hi"`, `back\slash`, "tab\tnl\ncr\r", "nul\x00bel\x07del\x7f",
		"<a&b>", "héllo", "日本語", "  ", "bad\xffutf8\xc3", "emoji 🙂"}
	floats := []float64{0, math.Copysign(0, -1), 8.4, -8.4, 1e21, -1.5e-7, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int64{0, 1, -1, 1 << 40, -(1 << 52)}
	dates := []time.Time{time.Unix(0, 0), time.Unix(-86401, 0), time.Date(2004, 3, 24, 9, 30, 0, 0, time.UTC)}
	prefix := []byte("keep:")
	check := func(e *Event) {
		t.Helper()
		want := fmtEvent(e, s)
		if got := e.Format(s); got != want {
			t.Fatalf("Format = %q, want %q", got, want)
		}
		if got := e.AppendFormat(prefix, s); string(got) != string(prefix)+want {
			t.Fatalf("AppendFormat = %q, want %q", got, string(prefix)+want)
		}
	}
	for i := range max(len(strs), len(floats), len(ints), len(dates)) {
		e, err := NewEvent(s, map[string]Value{
			"exchange": StringValue(strs[i%len(strs)]),
			"symbol":   StringValue(strs[(i+5)%len(strs)]),
			"when":     DateValue(dates[i%len(dates)]),
			"price":    FloatValue(floats[i%len(floats)]),
			"volume":   IntValue(ints[i%len(ints)]),
			"low":      FloatValue(-floats[(i+3)%len(floats)]),
		})
		if err != nil {
			t.Fatal(err)
		}
		check(e)
	}
	empty, err := NewEvent(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(empty)
	if got := (Value{}).String(); got != fmtValue(Value{}) {
		t.Fatalf("invalid Value renders %q", got)
	}
}

// sparseEvent builds an event carrying every third attribute of a
// 30-attribute integer schema, so lookups probe present and absent ids.
func sparseEvent(t testing.TB) (*Schema, *Event) {
	t.Helper()
	attrs := make([]Attribute, 30)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Type: TypeInt}
	}
	s := MustNew(attrs...)
	var fields []Field
	for i := 0; i < len(attrs); i += 3 {
		fields = append(fields, Field{Attr: AttrID(i), Value: IntValue(int64(i * 10))})
	}
	ev, err := EventFromFields(s, fields)
	if err != nil {
		t.Fatal(err)
	}
	return s, ev
}

// TestEventValueProbes checks Value against a linear scan of the fields
// for every id of the schema and one past it.
func TestEventValueProbes(t *testing.T) {
	s, ev := sparseEvent(t)
	for id := AttrID(0); int(id) <= s.Len(); id++ {
		want, wantOK := Value{}, false
		for _, f := range ev.Fields() {
			if f.Attr == id {
				want, wantOK = f.Value, true
			}
		}
		if got, ok := ev.Value(id); ok != wantOK || got != want {
			t.Fatalf("Value(%d) = %v, %v; want %v, %v", id, got, ok, want, wantOK)
		}
	}
	if _, ok := (&Event{}).Value(0); ok {
		t.Fatal("empty event reports a value")
	}
}

// BenchmarkEventValue is the per-constraint lookup of the exact re-match:
// one probe of each schema id, half of them absent.
func BenchmarkEventValue(b *testing.B) {
	s, ev := sparseEvent(b)
	n := AttrID(s.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Value(AttrID(i) % n)
	}
}

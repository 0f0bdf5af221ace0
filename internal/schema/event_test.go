package schema

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// requireValueMatchesScan checks Event.Value, answered by binary search,
// against a linear scan of Fields for every attribute id
// from 0 to s.Len()+2: ids past the event's last field, and past the
// schema, included.
func requireValueMatchesScan(t testing.TB, s *Schema, how string, e *Event) {
	t.Helper()
	for id := 0; id <= s.Len()+2; id++ {
		var want Value
		found := false
		for _, f := range e.Fields() {
			if int(f.Attr) == id {
				want, found = f.Value, true
			}
		}
		got, ok := e.Value(AttrID(id))
		if ok != found || got != want || e.Has(AttrID(id)) != found {
			t.Fatalf("%s: Value(%d) = %v, %v; the fields %v say %v, %v", how, id, got, ok, e.Fields(), want, found)
		}
	}
}

// TestEventValueMatchesScan is the property of Event.Value: on seeded
// events built by each constructor — NewEvent,
// EventFromFields, DecodeEvent and ParseEvent — over a schema of 300
// attributes (so positions pass 255), Value agrees with a scan of Fields
// for every id, also for ids Schema.Add (what ExtendSchema calls) defines
// after the event was built, and on the zero Event.
func TestEventValueMatchesScan(t *testing.T) {
	attrs := make([]Attribute, 300)
	types := []Type{TypeString, TypeFloat, TypeInt, TypeDate}
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Type: types[i%len(types)]}
	}
	s := MustNew(attrs...)
	value := func(rng *rand.Rand, ty Type) Value {
		switch ty {
		case TypeString:
			return StringValue(randWord(rng))
		case TypeFloat:
			return FloatValue(rng.NormFloat64() * 100)
		case TypeInt:
			return IntValue(rng.Int63n(1000) - 500)
		default:
			return Value{Type: TypeDate, Num: float64(rng.Int63n(1 << 31))}
		}
	}
	rng := rand.New(rand.NewSource(45))
	var built []*Event
	for trial := 0; trial < 200; trial++ {
		// Events of about one field (the schema's last attribute when the
		// draw finds none), of about a third of the schema, and of all of
		// it.
		density := []float64{0.003, 0.3, 1}[trial%3]
		byName := make(map[string]Value)
		var fields []Field
		var text []byte
		for i, a := range attrs {
			if rng.Float64() >= density && !(trial%3 == 0 && len(fields) == 0 && i == len(attrs)-1) {
				continue
			}
			v := value(rng, a.Type)
			byName[a.Name] = v
			fields = append(fields, Field{Attr: AttrID(i), Value: v})
			text = append(text, ' ')
			text = append(text, a.Name...)
			text = append(text, '=')
			text = v.AppendText(text)
		}
		rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		fromMap, err := NewEvent(s, byName)
		if err != nil {
			t.Fatal(err)
		}
		fromFields, err := EventFromFields(s, fields)
		if err != nil {
			t.Fatal(err)
		}
		decoded, _, err := DecodeEvent(s, EncodeEvent(nil, fromMap))
		if err != nil {
			t.Fatal(err)
		}
		shuffled, _, err := DecodeEvent(s, wireFields(fields...))
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseEvent(s, string(text))
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", text, err)
		}
		for how, e := range map[string]*Event{
			"NewEvent": fromMap, "EventFromFields": fromFields, "DecodeEvent": decoded,
			"DecodeEvent, shuffled": shuffled, "ParseEvent": parsed,
		} {
			if e.Len() != len(fields) {
				t.Fatalf("trial %d, %s: %d fields, built from %d", trial, how, e.Len(), len(fields))
			}
			requireValueMatchesScan(t, s, fmt.Sprintf("trial %d, %s", trial, how), e)
			built = append(built, e)
		}
	}
	// Attributes added after the events were built are absent from them.
	for i := 0; i < 3; i++ {
		if _, err := s.Add(fmt.Sprintf("late%d", i), types[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range built {
		requireValueMatchesScan(t, s, fmt.Sprintf("event %d after the schema grew", i), e)
	}
	requireValueMatchesScan(t, s, "the zero Event", &Event{})
}

// TestEventSizeFollowsFields: an event costs memory by its field count,
// not by its attributes' ids. On a schema of MaxAttributes, an event whose
// only field is the last attribute, built by each constructor, allocates
// no more than the same event of attribute 0.
func TestEventSizeFollowsFields(t *testing.T) {
	attrs := make([]Attribute, MaxAttributes)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Type: TypeInt}
	}
	s := MustNew(attrs...)
	perEvent := func(attr int, build func(Field) (*Event, error)) uint64 {
		f := Field{Attr: AttrID(attr), Value: IntValue(7)}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			e, err := build(f)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := e.Value(f.Attr); !ok || v != f.Value {
				t.Fatalf("Value(%d) = %v, %v", f.Attr, v, ok)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for how, build := range map[string]func(Field) (*Event, error){
		"NewEvent": func(f Field) (*Event, error) {
			return NewEvent(s, map[string]Value{attrs[f.Attr].Name: f.Value})
		},
		"EventFromFields": func(f Field) (*Event, error) { return EventFromFields(s, []Field{f}) },
		"DecodeEvent": func(f Field) (*Event, error) {
			e, _, err := DecodeEvent(s, wireFields(f))
			return e, err
		},
		"ParseEvent": func(f Field) (*Event, error) { return ParseEvent(s, attrs[f.Attr].Name+"=7") },
	} {
		narrow, wide := perEvent(0, build), perEvent(MaxAttributes-1, build)
		t.Logf("%s: %d bytes per event of attribute 0, %d of attribute %d", how, narrow, wide, MaxAttributes-1)
		if wide > narrow+64 {
			t.Errorf("%s: an event of attribute %d allocates %d bytes, one of attribute 0 %d", how, MaxAttributes-1, wide, narrow)
		}
	}
}

// TestEventsCarryStringHashes: every constructor leaves each string field
// of its event carrying HashString of the value (and every arithmetic one
// 0), so a broker's compiled lookup need not hash the text again; and
// carrying it costs no allocation: each constructor allocates as many
// times per event as it did before events carried hashes. A field that
// arrives with another value's hash is hashed afresh.
func TestEventsCarryStringHashes(t *testing.T) {
	s := paperSchema(t)
	const text = `exchange=NYSE symbol=OTE price=8.40 volume=132700`
	ev, err := ParseEvent(s, text)
	if err != nil {
		t.Fatal(err)
	}
	fs := ev.Fields()
	values := map[string]Value{}
	for _, f := range fs {
		values[s.Name(f.Attr)] = f.Value
	}
	shuffled := []Field{fs[2], fs[0], fs[3], fs[1]}
	stale := slices.Clone(fs)
	stale[0].Value = StringValue("LSE") // keeps NYSE's hash
	asc, mixed := wireFields(fs...), wireFields(shuffled...)
	for _, c := range []struct {
		how    string
		allocs float64 // per event before events carried hashes
		build  func() (*Event, error)
	}{
		{"NewEvent", 5, func() (*Event, error) { return NewEvent(s, values) }},
		{"EventFromFields", 5, func() (*Event, error) { return EventFromFields(s, shuffled) }},
		{"EventFromFields, a stale hash", 5, func() (*Event, error) { return EventFromFields(s, stale) }},
		{"DecodeEvent", 4, func() (*Event, error) { e, _, err := DecodeEvent(s, asc); return e, err }},
		{"DecodeEvent, fields out of order", 8, func() (*Event, error) { e, _, err := DecodeEvent(s, mixed); return e, err }},
		{"ParseEvent", 5, func() (*Event, error) { return ParseEvent(s, text) }},
	} {
		e, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.how, err)
		}
		strs := 0
		for _, f := range e.Fields() {
			want := uint64(0)
			if f.Value.Type == TypeString {
				want, strs = HashString(f.Value.Str), strs+1
			}
			if f.StrHash() != want {
				t.Errorf("%s: field %s=%v carries hash %#x, want %#x", c.how, s.Name(f.Attr), f.Value, f.StrHash(), want)
			}
		}
		if strs != 2 {
			t.Fatalf("%s: built %d string fields, want 2", c.how, strs)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = c.build() }); got > c.allocs {
			t.Errorf("%s: %v allocations per event, want at most %v", c.how, got, c.allocs)
		}
	}
	if HashString("NYSE") == HashString("LSE") {
		t.Fatal("fixture: NYSE and LSE share a hash, so a stale one would go unseen")
	}
}

package schema

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
)

// Field is one attribute/value pair of an event.
type Field struct {
	Attr  AttrID
	Value Value
	hash  uint64 // HashString(Value.Str) for a string field of an Event
}

// StrHash returns HashString of a string field's value, computed once when
// its event was built, so that every broker an event visits finds its
// compiled equality rows without hashing the text again. It is 0 for an
// arithmetic field and for a Field not taken from an Event.
func (f Field) StrHash() uint64 { return f.hash }

// hashSeed keys HashString for the life of the process: an event's hashes
// and the compiled tables they are looked up in are built by one process.
var hashSeed = maphash.MakeSeed()

// HashString returns the 64-bit hash of a string value that events carry
// (Field.StrHash) and compiled SACS tables are keyed by. Equal strings hash
// equal within a process; unequal ones may too, so a lookup confirms the
// text.
func HashString(s string) uint64 { return maphash.String(hashSeed, s) }

// Event is a published notification: a set of typed attribute values
// (Section 2.1, Figure 2). An event may carry more attributes than any
// subscription mentions. Fields are kept sorted by attribute id, with at
// most one field per attribute. An event is immutable once built, so its
// encoded size is fixed then too.
type Event struct {
	fields []Field
	size   int // EncodedEventSize, computed when the event is built
}

// newEvent wraps fields that are already sorted and validated, and hashes
// their string values.
func newEvent(fields []Field) *Event {
	n := 2
	for i, f := range fields {
		if f.Value.Type == TypeString {
			n += 2 + 1 + 2 + len(f.Value.Str)
			fields[i].hash = HashString(f.Value.Str)
		} else {
			n += 2 + 1 + 8
			fields[i].hash = 0
		}
	}
	return &Event{fields: fields, size: n}
}

// NewEvent builds an event over the given schema from name/value pairs,
// validating names, types, and duplicates.
func NewEvent(s *Schema, fields map[string]Value) (*Event, error) {
	fs := make([]Field, 0, len(fields))
	for name, v := range fields {
		id, ok := s.ID(name)
		if !ok {
			return nil, fmt.Errorf("schema: event attribute %q not in schema", name)
		}
		if err := checkValueType(s, id, v); err != nil {
			return nil, err
		}
		fs = append(fs, Field{Attr: id, Value: v})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Attr < fs[j].Attr })
	return newEvent(fs), nil
}

// EventFromFields builds an event from pre-resolved fields, validating
// against the schema. Duplicate attributes are an error.
func EventFromFields(s *Schema, fields []Field) (*Event, error) {
	fs := slices.Clone(fields)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Attr < fs[j].Attr })
	for i, f := range fs {
		if err := checkValueType(s, f.Attr, f.Value); err != nil {
			return nil, err
		}
		if i > 0 && fs[i-1].Attr == f.Attr {
			return nil, fmt.Errorf("schema: duplicate event attribute %q", s.Name(f.Attr))
		}
	}
	return newEvent(fs), nil
}

// CheckEvent reports whether e is an event of this schema, as DecodeEvent
// would accept its encoding: every attribute is defined here with the type
// of its value, and every string fits the codec's 16-bit length. An event
// built against another schema can name an attribute this one lacks, or
// give it another type.
func (s *Schema) CheckEvent(e *Event) error {
	if e == nil {
		return fmt.Errorf("schema: nil event")
	}
	for _, f := range e.fields {
		if err := checkValueType(s, f.Attr, f.Value); err != nil {
			return err
		}
		if err := checkStringLen(s.Name(f.Attr), f.Value); err != nil {
			return err
		}
	}
	return nil
}

// checkStringLen refuses a string value longer than the 16-bit length
// every codec writes for it (summary rows, snapshots, the event codec).
func checkStringLen(attr string, v Value) error {
	if v.Type == TypeString && len(v.Str) > math.MaxUint16 {
		return fmt.Errorf("schema: attribute %q: string of %d bytes exceeds the codec's %d", attr, len(v.Str), math.MaxUint16)
	}
	return nil
}

func checkValueType(s *Schema, id AttrID, v Value) error {
	a, ok := s.Attr(id)
	if !ok {
		return fmt.Errorf("schema: attribute id %d out of range", id)
	}
	if !v.Valid() {
		return fmt.Errorf("schema: invalid value for attribute %q", a.Name)
	}
	// Int/float/date are interchangeable numerically only if declared so;
	// the declared type is authoritative (paper assumption (i)).
	if a.Type == TypeString != (v.Type == TypeString) {
		return fmt.Errorf("schema: attribute %q is %s, got %s value", a.Name, a.Type, v.Type)
	}
	if a.Type != TypeString && v.Type != a.Type {
		return fmt.Errorf("schema: attribute %q is %s, got %s value", a.Name, a.Type, v.Type)
	}
	return nil
}

// Len returns the number of fields in the event.
func (e *Event) Len() int { return len(e.fields) }

// Fields returns the event's fields in attribute-id order. The returned
// slice is shared; callers must not mutate it.
func (e *Event) Fields() []Field { return e.fields }

// Value returns the value of the given attribute, if present. The binary
// search is written out rather than left to sort.Search: it runs for every
// constraint of every exact re-match, and the closure call per probe was a
// measurable share of the owner step.
func (e *Event) Value(id AttrID) (Value, bool) {
	lo, hi := 0, len(e.fields)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.fields[mid].Attr < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.fields) && e.fields[lo].Attr == id {
		return e.fields[lo].Value, true
	}
	return Value{}, false
}

// Has reports whether the event carries the given attribute.
func (e *Event) Has(id AttrID) bool {
	_, ok := e.Value(id)
	return ok
}

// WireSize returns the event's size in bytes under the paper's cost model:
// 2 bytes of attribute id plus the value payload, per field.
func (e *Event) WireSize() int {
	n := 0
	for _, f := range e.fields {
		n += 2 + f.Value.WireSize()
	}
	return n
}

// Format renders the event as "name=value" pairs using the schema for
// attribute names.
func (e *Event) Format(s *Schema) string { return string(e.AppendFormat(nil, s)) }

// AppendFormat appends Format's rendering of the event to dst.
func (e *Event) AppendFormat(dst []byte, s *Schema) []byte {
	dst = append(dst, '{')
	for i, f := range e.fields {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, s.Name(f.Attr)...)
		dst = append(dst, '=')
		dst = f.Value.AppendText(dst)
	}
	return append(dst, '}')
}

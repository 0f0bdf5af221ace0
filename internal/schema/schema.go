// Package schema defines the event and subscription model of the
// subscription-summarization paper (Triantafillou & Economides, ICDCS 2004,
// Section 2.1): events are untyped sets of typed attributes, and
// subscriptions are conjunctions of per-attribute constraints over a rich
// operator set (=, ≠, <, ≤, >, ≥, prefix, suffix, containment, glob).
//
// The paper assumes (Section 3) that the set of attributes is predefined,
// ordered, and known to every broker; Schema captures exactly that global
// agreement. Attribute identifiers are indexes into the schema and double as
// bit positions in the c3 component of subscription ids.
package schema

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Type enumerates the attribute data types supported by the system.
// Arithmetic types (Int, Float, Date) are normalized to float64 for
// constraint evaluation; Date is represented as Unix seconds.
type Type uint8

// Supported attribute types.
const (
	TypeInvalid Type = iota
	TypeString
	TypeInt
	TypeFloat
	TypeDate
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeDate:
		return "date"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// ParseType converts a type name to a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string":
		return TypeString, nil
	case "int", "integer":
		return TypeInt, nil
	case "float", "double":
		return TypeFloat, nil
	case "date", "time":
		return TypeDate, nil
	default:
		return TypeInvalid, fmt.Errorf("schema: unknown type %q", s)
	}
}

// Arithmetic reports whether values of the type are matched numerically.
func (t Type) Arithmetic() bool {
	return t == TypeInt || t == TypeFloat || t == TypeDate
}

// AttrID identifies an attribute within a Schema. It is the attribute's
// index in the ordered attribute list and its bit position in c3.
type AttrID uint16

// Attribute is a (name, type) pair in the global schema.
type Attribute struct {
	Name string
	Type Type
}

// Schema is the ordered, system-wide set of attribute definitions shared by
// all brokers. The zero value is an empty schema; use New or Add to build
// one. A named attribute cannot have two different data types (paper
// assumption (i)).
//
// Schemas are safe for concurrent use: the paper's Section 6 extension to
// dynamically-changing attribute schemata only requires growing the c3
// field of subscription ids, so attributes may be appended at runtime
// (Add) while brokers keep matching — existing ids simply have the new
// bits unset.
type Schema struct {
	mu  sync.Mutex // serializes Add
	def atomic.Pointer[definition]
}

// definition is one immutable generation of a schema. Add publishes a
// grown copy and never touches a published one, so every read is a single
// atomic load — no lock, no shared cache line written per decoded field —
// and an id, once handed out, names the same attribute in every later
// generation.
type definition struct {
	attrs  []Attribute
	byName map[string]AttrID
}

var emptyDefinition definition

// load returns the current generation (the zero Schema's is empty).
func (s *Schema) load() *definition {
	if d := s.def.Load(); d != nil {
		return d
	}
	return &emptyDefinition
}

// MaxAttributes is the most attributes a schema holds. The summary wire
// form (internal/summary) writes the word count of a c3 mask — one bit per
// attribute, 64 to a word — in a single byte, so a mask of more than 255
// words cannot be encoded: a summary over a larger schema would no longer
// decode at its receiver. (AttrID itself would only wrap at 65 536.)
const MaxAttributes = 255 * 64

// admit reports why d cannot grow by attribute a, nil if it can.
func (d *definition) admit(a Attribute) error {
	if a.Name == "" {
		return fmt.Errorf("schema: empty attribute name")
	}
	if len(a.Name) > math.MaxUint16 {
		// The snapshot writes a name's length in 16 bits.
		return fmt.Errorf("schema: attribute name of %d bytes exceeds the codec's %d", len(a.Name), math.MaxUint16)
	}
	if a.Type == TypeInvalid || a.Type > TypeDate {
		return fmt.Errorf("schema: attribute %q has invalid type", a.Name)
	}
	if _, ok := d.byName[a.Name]; ok {
		return fmt.Errorf("schema: duplicate attribute %q", a.Name)
	}
	if len(d.attrs) >= MaxAttributes {
		return fmt.Errorf("schema: attribute %q exceeds the limit of %d attributes", a.Name, MaxAttributes)
	}
	return nil
}

// New builds a schema from the given attribute definitions, in order.
func New(attrs ...Attribute) (*Schema, error) {
	d := &definition{
		attrs:  make([]Attribute, 0, len(attrs)),
		byName: make(map[string]AttrID, len(attrs)),
	}
	for _, a := range attrs {
		if err := d.admit(a); err != nil {
			return nil, err
		}
		d.byName[a.Name] = AttrID(len(d.attrs))
		d.attrs = append(d.attrs, a)
	}
	s := &Schema{}
	s.def.Store(d)
	return s, nil
}

// MustNew is like New but panics on error. Intended for tests and examples
// with literal attribute lists.
func MustNew(attrs ...Attribute) *Schema {
	s, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends an attribute definition and returns its id. Appending is
// safe while other goroutines match events (schema evolution, Section 6).
// A schema already holding MaxAttributes refuses, unchanged.
func (s *Schema) Add(name string, t Type) (AttrID, error) {
	a := Attribute{Name: name, Type: t}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.load()
	if err := old.admit(a); err != nil {
		return 0, err
	}
	id := AttrID(len(old.attrs))
	grown := &definition{
		attrs:  append(slices.Clip(old.attrs), a),
		byName: make(map[string]AttrID, len(old.byName)+1),
	}
	maps.Copy(grown.byName, old.byName)
	grown.byName[name] = id
	s.def.Store(grown)
	return id, nil
}

// Len returns the number of attributes (the paper's n_t).
func (s *Schema) Len() int { return len(s.load().attrs) }

// ID resolves an attribute name to its id.
func (s *Schema) ID(name string) (AttrID, bool) {
	id, ok := s.load().byName[name]
	return id, ok
}

// Attr returns the definition of the given attribute id.
func (s *Schema) Attr(id AttrID) (Attribute, bool) {
	attrs := s.load().attrs
	if int(id) >= len(attrs) {
		return Attribute{}, false
	}
	return attrs[id], true
}

// Name returns the attribute name for id, or "attr<id>" if out of range.
func (s *Schema) Name(id AttrID) string {
	if a, ok := s.Attr(id); ok {
		return a.Name
	}
	return fmt.Sprintf("attr%d", id)
}

// TypeOf returns the type of the attribute id (TypeInvalid if unknown).
func (s *Schema) TypeOf(id AttrID) Type {
	a, _ := s.Attr(id)
	return a.Type
}

// Attributes returns a copy of the ordered attribute definitions.
func (s *Schema) Attributes() []Attribute { return slices.Clone(s.load().attrs) }

// Equal reports whether two schemas define the same attributes in the same
// order. Brokers must agree on the schema before exchanging summaries.
// A schema is always Equal to itself, even mid-evolution.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	a := s.Attributes()
	b := o.Attributes()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "name:type" pairs in order.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.Attributes() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Type)
	}
	b.WriteByte('}')
	return b.String()
}

package schema

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec for values, events, constraints, and subscriptions. The
// format is a compact little-endian encoding used by the TCP daemon and by
// tests that need real (not modelled) byte counts:
//
//	value:        type:u8, then f64 (arithmetic) or len:u16 + bytes (string)
//	field:        attr:u16, value
//	event:        nfields:u16, fields...
//	constraint:   attr:u16, op:u8, value
//	subscription: nconstraints:u16, constraints...
func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	if v.Type == TypeString {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v.Str)))
		return append(buf, v.Str...)
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Num))
}

func decodeValue(buf []byte) (Value, int, error) {
	if len(buf) < 1 {
		return Value{}, 0, fmt.Errorf("schema: short value")
	}
	t := Type(buf[0])
	if t == TypeString {
		if len(buf) < 3 {
			return Value{}, 0, fmt.Errorf("schema: short string value")
		}
		n := int(binary.LittleEndian.Uint16(buf[1:3]))
		if len(buf) < 3+n {
			return Value{}, 0, fmt.Errorf("schema: truncated string value")
		}
		return Value{Type: TypeString, Str: string(buf[3 : 3+n])}, 3 + n, nil
	}
	if t != TypeInt && t != TypeFloat && t != TypeDate {
		return Value{}, 0, fmt.Errorf("schema: bad value type %d", t)
	}
	if len(buf) < 9 {
		return Value{}, 0, fmt.Errorf("schema: short numeric value")
	}
	num := math.Float64frombits(binary.LittleEndian.Uint64(buf[1:9]))
	v := Value{Type: t, Num: num}
	if !v.Valid() {
		return Value{}, 0, fmt.Errorf("schema: non-finite numeric value")
	}
	return v, 9, nil
}

// EncodeEvent appends the event's binary form to buf and returns it.
func EncodeEvent(buf []byte, e *Event) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.fields)))
	for _, f := range e.fields {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(f.Attr))
		buf = appendValue(buf, f.Value)
	}
	return buf
}

// EncodedEventSize returns len(EncodeEvent(nil, e)) without encoding: the
// size fixed when the event was built. The zero Event, which has no
// fields, encodes to its 2-byte field count.
func EncodedEventSize(e *Event) int { return max(e.size, 2) }

// minFieldWire is the smallest encoded field: attr:u16, type:u8, and an
// empty string's len:u16.
const minFieldWire = 5

// DecodeEvent parses an event from buf, validating against the schema.
// It returns the event and the number of bytes consumed. EncodeEvent
// writes fields in ascending attribute order, so that is the path decoded
// in place — strictly ascending ids are also the duplicate check; fields
// in any other order are accepted through EventFromFields.
func DecodeEvent(s *Schema, buf []byte) (*Event, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("schema: short event")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	off := 2
	// The count is the sender's claim; the bytes left bound what it can
	// make us allocate.
	fields := make([]Field, 0, min(n, (len(buf)-off)/minFieldWire))
	sorted := true
	for i := 0; i < n; i++ {
		if len(buf) < off+2 {
			return nil, 0, fmt.Errorf("schema: truncated event field")
		}
		attr := AttrID(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		v, vn, err := decodeValue(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += vn
		if i > 0 && attr <= fields[i-1].Attr {
			sorted = false
		}
		fields = append(fields, Field{Attr: attr, Value: v})
	}
	if !sorted {
		e, err := EventFromFields(s, fields)
		if err != nil {
			return nil, 0, err
		}
		return e, off, nil
	}
	for _, f := range fields {
		if err := checkValueType(s, f.Attr, f.Value); err != nil {
			return nil, 0, err
		}
	}
	return newEvent(fields), off, nil
}

// EncodeSubscription appends the subscription's binary form to buf.
func EncodeSubscription(buf []byte, sub *Subscription) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sub.Constraints)))
	for _, c := range sub.Constraints {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(c.Attr))
		buf = append(buf, byte(c.Op))
		buf = appendValue(buf, c.Value)
	}
	return buf
}

// DecodeSubscription parses a subscription from buf, validating against the
// schema. It returns the subscription and the number of bytes consumed.
func DecodeSubscription(s *Schema, buf []byte) (*Subscription, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("schema: short subscription")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	off := 2
	cs := make([]Constraint, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < off+3 {
			return nil, 0, fmt.Errorf("schema: truncated constraint")
		}
		attr := AttrID(binary.LittleEndian.Uint16(buf[off:]))
		op := Op(buf[off+2])
		off += 3
		v, vn, err := decodeValue(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += vn
		cs = append(cs, Constraint{Attr: attr, Op: op, Value: v})
	}
	sub, err := NewSubscription(s, cs...)
	if err != nil {
		return nil, 0, err
	}
	return sub, off, nil
}

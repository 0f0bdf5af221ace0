package schema

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Value is a typed attribute value carried by events and constraints.
// Arithmetic values (int, float, date) are normalized to a float64 in Num;
// string values live in Str. The zero Value is invalid.
type Value struct {
	Type Type
	Num  float64
	Str  string
}

// String constructs a string value.
func StringValue(s string) Value { return Value{Type: TypeString, Str: s} }

// IntValue constructs an int value.
func IntValue(v int64) Value { return Value{Type: TypeInt, Num: float64(v)} }

// FloatValue constructs a float value.
func FloatValue(v float64) Value { return Value{Type: TypeFloat, Num: v} }

// DateValue constructs a date value from a time instant (second precision).
func DateValue(t time.Time) Value {
	return Value{Type: TypeDate, Num: float64(t.Unix())}
}

// Arithmetic reports whether the value is matched numerically.
func (v Value) Arithmetic() bool { return v.Type.Arithmetic() }

// Valid reports whether the value carries a usable type and, for arithmetic
// values, a finite number (NaN and infinities are rejected at the API
// boundary so summary range arithmetic stays total).
func (v Value) Valid() bool {
	switch v.Type {
	case TypeString:
		return true
	case TypeInt, TypeFloat, TypeDate:
		return !math.IsNaN(v.Num) && !math.IsInf(v.Num, 0)
	default:
		return false
	}
}

// Compare orders two arithmetic values: -1 if v<o, 0 if equal, +1 if v>o.
// It panics if either value is not arithmetic; callers validate types first.
func (v Value) Compare(o Value) int {
	if !v.Arithmetic() || !o.Arithmetic() {
		panic("schema: Compare on non-arithmetic value")
	}
	switch {
	case v.Num < o.Num:
		return -1
	case v.Num > o.Num:
		return 1
	default:
		return 0
	}
}

// Equal reports semantic equality: same type class (string vs arithmetic)
// and same payload. An int 3 equals a float 3 only if both are arithmetic
// of any kind with the same Num; cross string/arithmetic is never equal.
func (v Value) Equal(o Value) bool {
	if v.Type == TypeString || o.Type == TypeString {
		return v.Type == TypeString && o.Type == TypeString && v.Str == o.Str
	}
	return v.Arithmetic() && o.Arithmetic() && v.Num == o.Num
}

// String renders the value for humans: strings quoted, ints without decimal
// point, dates in RFC 3339.
func (v Value) String() string { return string(v.AppendText(nil)) }

// AppendText appends String's rendering of the value to dst.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Type {
	case TypeString:
		return strconv.AppendQuote(dst, v.Str)
	case TypeInt:
		return strconv.AppendInt(dst, int64(v.Num), 10)
	case TypeFloat:
		return strconv.AppendFloat(dst, v.Num, 'g', -1, 64)
	case TypeDate:
		return time.Unix(int64(v.Num), 0).UTC().AppendFormat(dst, time.RFC3339)
	default:
		return append(dst, "<invalid>"...)
	}
}

// WireSize returns the size in bytes this value contributes under the
// paper's cost model (Table 2): arithmetic values cost s_st = 4 bytes,
// string values cost one byte per character (average s_sv = 10).
func (v Value) WireSize() int {
	if v.Type == TypeString {
		return len(v.Str)
	}
	return 4
}

// ParseValue parses the textual form of a value of the given type:
// ints in base 10, floats per strconv, dates as RFC 3339 or Unix seconds,
// strings verbatim (quotes, if present, must be pre-stripped by the caller).
func ParseValue(t Type, text string) (Value, error) {
	switch t {
	case TypeString:
		return StringValue(text), nil
	case TypeInt:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("schema: bad int %q: %w", text, err)
		}
		return IntValue(n), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("schema: bad float %q: %w", text, err)
		}
		v := FloatValue(f)
		if !v.Valid() {
			return Value{}, fmt.Errorf("schema: non-finite float %q", text)
		}
		return v, nil
	case TypeDate:
		if ts, err := time.Parse(time.RFC3339, text); err == nil {
			return DateValue(ts), nil
		}
		secs, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("schema: bad date %q (want RFC3339 or unix seconds)", text)
		}
		return DateValue(time.Unix(secs, 0)), nil
	default:
		return Value{}, fmt.Errorf("schema: cannot parse value of invalid type")
	}
}

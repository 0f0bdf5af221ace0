// Package interval implements the Arithmetic Attribute Constraint Summary
// (AACS) of Section 3.1 of the subscription-summarization paper: for one
// arithmetic attribute, a set of non-overlapping value sub-ranges (the
// paper's AACSSR array), a set of equality values outside those ranges
// (AACSE), and a not-equal list (the paper lists ≠ among the supported
// operators), each row carrying the list of subscription ids whose
// constraint is satisfied by the row's values.
//
// Subscription ids are opaque uint64 keys here (the summary layer maps them
// back to full c1‖c2‖c3 ids).
package interval

import (
	"fmt"
	"math"
	"strings"
)

// Interval is a range of float64 values with independently open or closed
// bounds. Unbounded sides use ±Inf (always open). The zero Interval is the
// empty interval [0,0) — use the constructors.
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// Full returns the interval covering every value.
func Full() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), LoOpen: true, HiOpen: true}
}

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval { return Interval{Lo: v, Hi: v} }

// Range returns the interval between lo and hi with the given openness,
// normalizing infinite bounds to open.
func Range(lo, hi float64, loOpen, hiOpen bool) Interval {
	iv := Interval{Lo: lo, Hi: hi, LoOpen: loOpen, HiOpen: hiOpen}
	return iv.normalize()
}

// Below returns the interval of all values less than v (or ≤ v if closed).
func Below(v float64, closed bool) Interval {
	return Interval{Lo: math.Inf(-1), LoOpen: true, Hi: v, HiOpen: !closed}
}

// Above returns the interval of all values greater than v (or ≥ v).
func Above(v float64, closed bool) Interval {
	return Interval{Lo: v, LoOpen: !closed, Hi: math.Inf(1), HiOpen: true}
}

func (iv Interval) normalize() Interval {
	if math.IsInf(iv.Lo, -1) {
		iv.LoOpen = true
	}
	if math.IsInf(iv.Hi, 1) {
		iv.HiOpen = true
	}
	return iv
}

// Empty reports whether no value lies in the interval.
func (iv Interval) Empty() bool {
	if iv.Lo > iv.Hi {
		return true
	}
	return iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen)
}

// IsPoint reports whether the interval contains exactly one value, and
// returns it.
func (iv Interval) IsPoint() (float64, bool) {
	if iv.Lo == iv.Hi && !iv.LoOpen && !iv.HiOpen {
		return iv.Lo, true
	}
	return 0, false
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool {
	if x < iv.Lo || (x == iv.Lo && iv.LoOpen) {
		return false
	}
	if x > iv.Hi || (x == iv.Hi && iv.HiOpen) {
		return false
	}
	return true
}

// Intersect returns the intersection of two intervals (possibly empty).
func Intersect(a, b Interval) Interval {
	out := a
	if b.Lo > out.Lo || (b.Lo == out.Lo && b.LoOpen) {
		out.Lo, out.LoOpen = b.Lo, b.LoOpen
	}
	if b.Hi < out.Hi || (b.Hi == out.Hi && b.HiOpen) {
		out.Hi, out.HiOpen = b.Hi, b.HiOpen
	}
	return out
}

// Covers reports whether a contains every value of b (an empty b is covered
// by anything). This is the arithmetic-constraint subsumption relation used
// by the Siena comparator.
func Covers(a, b Interval) bool {
	if b.Empty() {
		return true
	}
	if a.Empty() {
		return false
	}
	loOK := a.Lo < b.Lo || (a.Lo == b.Lo && (!a.LoOpen || b.LoOpen))
	hiOK := a.Hi > b.Hi || (a.Hi == b.Hi && (!a.HiOpen || b.HiOpen))
	return loOK && hiOK
}

// Equal reports whether two intervals denote the same value set (all empty
// intervals are considered equal).
func (iv Interval) Equal(o Interval) bool {
	if iv.Empty() || o.Empty() {
		return iv.Empty() && o.Empty()
	}
	return iv.normalize() == o.normalize()
}

// String renders the interval in mathematical notation, e.g. "(8.3, 8.7]".
func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	var b strings.Builder
	if iv.LoOpen {
		b.WriteByte('(')
	} else {
		b.WriteByte('[')
	}
	fmt.Fprintf(&b, "%g, %g", iv.Lo, iv.Hi)
	if iv.HiOpen {
		b.WriteByte(')')
	} else {
		b.WriteByte(']')
	}
	return b.String()
}

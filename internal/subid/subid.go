// Package subid implements the subscription identifiers of Section 3.2 of
// the subscription-summarization paper. An id is the concatenation of three
// parts:
//
//	c1 — the id of the broker that owns the subscription
//	     (⌈log2(total brokers)⌉ bits),
//	c2 — the broker-local id of the subscription
//	     (⌈log2(max outstanding subscriptions per broker)⌉ bits),
//	c3 — a bitmap with one bit per schema attribute, set for every
//	     attribute the subscription constrains (n_t bits).
//
// c3 lets the matching algorithm (Algorithm 1, step 2) decide, from the id
// alone, how many attribute lists a subscription must appear in to match —
// no subscription entity is ever consulted.
package subid

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// BrokerID identifies a broker (the c1 component).
type BrokerID uint32

// LocalID identifies a subscription within its owning broker (c2).
type LocalID uint32

// Mask is an attribute bitmap (the c3 component): bit i is set iff the
// subscription constrains attribute i. The zero Mask has no bits set and
// must be sized with NewMask before Set for attribute ids ≥ 64.
type Mask []uint64

// NewMask returns a mask able to hold attrCount attribute bits.
func NewMask(attrCount int) Mask { return make(Mask, 0).Reset(attrCount) }

// Reset returns a zero mask able to hold n bits, in m's storage when it
// has room, so a pooled mask is reused without allocating.
func (m Mask) Reset(n int) Mask {
	words := (n + 63) / 64
	m = slices.Grow(m[:0], words)[:words]
	clear(m)
	return m
}

// MaskOf builds a mask (sized for attrCount) with the given bits set. A
// test hook: the subid and summary tests build literal masks with it.
func MaskOf(attrCount int, attrs ...int) Mask {
	m := NewMask(attrCount)
	for _, a := range attrs {
		m.Set(a)
	}
	return m
}

// Set sets bit a, growing the mask if needed.
func (m *Mask) Set(a int) {
	word := a / 64
	for word >= len(*m) {
		*m = append(*m, 0)
	}
	(*m)[word] |= 1 << (a % 64)
}

// Has reports whether bit a is set.
func (m Mask) Has(a int) bool {
	word := a / 64
	return word < len(m) && m[word]&(1<<(a%64)) != 0
}

// Count returns the number of set bits (the number of constrained
// attributes).
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bits returns the set bit positions in ascending order.
func (m Mask) Bits() []int {
	out := make([]int, 0, m.Count())
	for wi, w := range m {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << b
		}
	}
	return out
}

// Equal reports whether two masks have the same set bits (ignoring
// trailing zero words).
func (m Mask) Equal(o Mask) bool {
	long, short := m, o
	if len(long) < len(short) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Within reports whether every bit set in m is also set in o.
func (m Mask) Within(o Mask) bool {
	for i, w := range m {
		if i < len(o) {
			w &^= o[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Compare orders masks word by word, lowest word first, ignoring trailing
// zero words: it returns -1, 0 or +1, and 0 exactly when Equal holds.
func (m Mask) Compare(o Mask) int {
	for i := range max(len(m), len(o)) {
		var a, b uint64
		if i < len(m) {
			a = m[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a != b {
			return cmp.Compare(a, b)
		}
	}
	return 0
}

// Clone returns an independent copy of the mask.
func (m Mask) Clone() Mask {
	out := make(Mask, len(m))
	copy(out, m)
	return out
}

// String renders the mask as its ascending bit positions, e.g. "{3,5,6}".
func (m Mask) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, bit := range m.Bits() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", bit)
	}
	b.WriteByte('}')
	return b.String()
}

// ID is a subscription id: the (c1, c2, c3) triple. (Broker, Local) is a
// system-wide unique key; Attrs is derived metadata used by matching.
type ID struct {
	Broker BrokerID
	Local  LocalID
	Attrs  Mask
}

// Key packs the identity components (c1, c2) into a comparable uint64 for
// use as a map key. c3 is derived from the subscription and carried for
// matching, so it does not participate in identity.
func (id ID) Key() uint64 {
	return uint64(id.Broker)<<32 | uint64(id.Local)
}

// KeyParts recovers (c1, c2) from a Key value.
func KeyParts(key uint64) (BrokerID, LocalID) {
	return BrokerID(key >> 32), LocalID(key & 0xFFFFFFFF)
}

// NumAttrs returns the number of attributes the subscription constrains
// (the popcount of c3) — the matching algorithm's per-id target counter.
func (id ID) NumAttrs() int { return id.Attrs.Count() }

// String renders the id as "B<broker>/S<local><attrs>".
func (id ID) String() string {
	return fmt.Sprintf("B%d/S%d%s", id.Broker, id.Local, id.Attrs)
}

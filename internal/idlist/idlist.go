// Package idlist owns the subscription-id list that every AACS and SACS
// row holds (the paper's Section 3.1, Figures 4 and 5). A list is a plain
// []uint64, sorted ascending without duplicates.
//
// A compiled copy over n ids (see Mapper) gives each list the smaller of
// two forms. With W = Words(n), a list of at least W ids is stored as the
// W-word bitset of them (id i is bit i&63 of word i>>6): n/8 bytes instead
// of 8 per id. Every other list keeps fewer than W ids, so a reader tells
// the forms apart by length alone; Append and List read either. A list
// built by mutation is never empty, and its sets read it with words 0, so
// it is never taken for a bitset.
package idlist

import (
	"math/bits"
	"slices"
	"sort"
)

// Words returns the number of 64-bit words a bitset over n ids takes.
func Words(n int) int { return (n + 63) / 64 }

// Add inserts id into the sorted list ids if absent.
func Add(ids []uint64, id uint64) []uint64 {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// Union returns the union of two sorted lists. It returns a itself when b
// is empty, and otherwise a new slice.
func Union(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// UnionInto merges the sorted list src into the sorted list dst in place,
// returning the union. It allocates only when dst lacks capacity for the
// ids src adds, and then exactly what the union needs; in the wire-merge
// steady state (src ⊆ dst) it is a read-only scan that returns dst itself.
func UnionInto(dst, src []uint64) []uint64 { return unionInto(dst, src, false) }

// Join is UnionInto for a row that subscriptions join a few ids at a
// time: when dst lacks capacity it grows as append does, so a row joined
// one id at a time is copied O(log n) times, not at every join.
func Join(dst, src []uint64) []uint64 { return unionInto(dst, src, true) }

// unionInto is UnionInto, growing dst as append does when amortized.
func unionInto(dst, src []uint64, amortized bool) []uint64 {
	extra := 0
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i] < src[j]:
			i++
		case dst[i] > src[j]:
			extra++
			j++
		default:
			i++
			j++
		}
	}
	extra += len(src) - j
	if extra == 0 {
		return dst
	}
	n := len(dst)
	if cap(dst) < n+extra {
		if amortized {
			dst = slices.Grow(dst, extra)
		} else {
			grown := make([]uint64, n, n+extra)
			copy(grown, dst)
			dst = grown
		}
	}
	dst = dst[:n+extra]
	// Merge from the back so unshifted dst elements are read before they
	// are overwritten.
	for i, j, k := n-1, len(src)-1, n+extra-1; j >= 0; k-- {
		switch {
		case i >= 0 && dst[i] > src[j]:
			dst[k] = dst[i]
			i--
		case i >= 0 && dst[i] == src[j]:
			dst[k] = dst[i]
			i--
			j--
		default:
			dst[k] = src[j]
			j--
		}
	}
	return dst
}

// Without deletes every id present in dead from ids, in place, preserving
// order.
func Without(ids []uint64, dead map[uint64]struct{}) []uint64 {
	out := ids[:0]
	for _, v := range ids {
		if _, ok := dead[v]; !ok {
			out = append(out, v)
		}
	}
	return out
}

// Slab hands out copies of lists from shared chunks, so a wire merge that
// adds many rows costs one allocation per chunk instead of one per row.
// The zero value is ready. A slab must not be shared between sets.
type Slab struct{ free []uint64 }

// Copy returns a copy of ids carved from the slab. The copy has no spare
// capacity, so a later in-place growth reallocates rather than bleeding
// into the next carve.
func (s *Slab) Copy(ids []uint64) []uint64 {
	if len(s.free) < len(ids) {
		s.free = make([]uint64, max(1024, len(ids)))
	}
	out := s.free[:len(ids):len(ids)]
	s.free = s.free[len(ids):]
	copy(out, ids)
	return out
}

// Append appends to dst the ids one list holds, read with the words of its
// set: the list itself, or the ids a bitset has set, ascending.
func Append(dst, ids []uint64, words int) []uint64 {
	if len(ids) != words {
		return append(dst, ids...)
	}
	for w, word := range ids {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, uint64(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// List returns the ids of one list as a list, read with the words of its
// set: the list itself, or a bitset expanded into a new slice.
func List(ids []uint64, words int) []uint64 {
	if len(ids) != words {
		return ids
	}
	return Append(nil, ids, words)
}

// Mapper builds the lists of a compiled copy over n ids: each list
// translated, and stored in whichever form the package comment gives it.
// Every list it returns shares one backing array, so the copy is meant to
// be read, not mutated.
type Mapper struct {
	slab   []uint64
	bitset []uint64
}

// NewMapper returns a Mapper over n ids for lists holding at most entries
// ids in all.
func NewMapper(n, entries int) Mapper {
	// A bitset takes the place of at least as many ids as it has words, so
	// the ids bound the slab.
	return Mapper{slab: make([]uint64, 0, entries), bitset: make([]uint64, Words(n))}
}

// Map returns the list of the ids of ids that f keeps, translated, in the
// form their count picks; it is empty when f keeps none. f must be
// one-to-one on the ids it keeps, and every id it returns must be below n.
// The Mapper never interprets the ids of a list beyond their order: when f
// is strictly increasing the list stays sorted; otherwise order, if
// non-nil, is handed a list of two or more ids that stays a list, as f
// left it, and the caller must sort it in place before it reads it. The
// Mapper holds neither function: held, each would escape to the heap with
// the lists handed to order, one allocation per compiled set.
func (m *Mapper) Map(ids []uint64, f func(uint64) (uint64, bool), order func([]uint64)) []uint64 {
	start := len(m.slab)
	for _, id := range ids {
		if t, ok := f(id); ok {
			m.slab = append(m.slab, t)
		}
	}
	if len(m.slab)-start < len(m.bitset) {
		ids = m.slab[start:len(m.slab):len(m.slab)]
		if order != nil && len(ids) > 1 {
			order(ids)
		}
		return ids
	}
	clear(m.bitset)
	for _, t := range m.slab[start:] {
		m.bitset[t>>6] |= 1 << (t & 63)
	}
	m.slab = m.slab[:start+copy(m.slab[start:], m.bitset)]
	return m.slab[start:len(m.slab):len(m.slab)]
}

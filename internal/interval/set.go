package interval

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/subsum/subsum/internal/idlist"
)

// Mode names how the AACS treats equality constraints whose value falls
// inside an existing sub-range. Lossy is its one value; the parameter stays
// only so that callers keep compiling.
type Mode uint8

// Lossy is the paper's behaviour (Section 3.1): the subscription id is
// folded into the covering sub-range row, so the summary may report the
// subscription for any value of the sub-range (a pre-filter false
// positive, resolved by exact matching at the owning broker). Queries
// consult AACSE only when no sub-range contains the value, exactly as
// Check_for_a_value_match prescribes.
const Lossy Mode = 0

// row is one AACSSR entry: a sub-range plus the ids of subscriptions whose
// constraint is satisfied throughout it.
type row struct {
	iv  Interval
	ids []uint64 // sorted, deduplicated
}

// neEntry is a not-equal constraint: satisfied by every value except Value.
type neEntry struct {
	value float64
	ids   []uint64
}

// Set is the AACS for a single arithmetic attribute: disjoint sub-range
// rows sorted by lower bound (AACSSR), equality values outside the ranges
// in value order (AACSE), and not-equal entries. Use NewSet.
type Set struct {
	rows []row     // disjoint, sorted by lower bound
	eq   points    // equality values no sub-range contains
	ne   []neEntry // sorted by value

	// words is what the set's id lists are read with (see idlist):
	// idlist.Words(n) on a CloneMapped copy over n ids, 0 on a set built
	// by mutation.
	words int

	// slab backs the id lists the wire-merge paths (MergePoint,
	// MergeNotEqual) retain. Never shared between sets (Clone builds a
	// fresh set).
	slab idlist.Slab
}

// NewSet returns an empty AACS.
func NewSet(Mode) *Set { return &Set{} }

// Insert records that subscription id constrains this attribute to iv.
// The caller has already intersected all of the subscription's constraints
// on this attribute into one canonical interval (as the paper's Figure 4
// does for "8.30 < price < 8.70"). Empty intervals are ignored: such a
// subscription can never match.
func (s *Set) Insert(iv Interval, id uint64) {
	iv = iv.normalize()
	if iv.Empty() {
		return
	}
	if v, isPoint := iv.IsPoint(); isPoint {
		s.insertPoint(v, id)
		return
	}
	s.insertRange(iv, []uint64{id})
}

// MergeRow folds one serialized AACSSR row into the set (multi-broker
// summary construction, Section 4.1: "values for the same numeric
// attributes are simply merged"): always through the range-splicing path,
// even when the interval is a single point, so a point row stays a row and
// a set merged into an empty one re-encodes to the same rows. ids must be
// sorted ascending without duplicates; the slice is not retained.
func (s *Set) MergeRow(iv Interval, ids []uint64) {
	iv = iv.normalize()
	if iv.Empty() || len(ids) == 0 {
		return
	}
	s.insertRange(iv, ids)
}

// MergePoint folds one serialized AACSE row into the set: the same sorted
// unions insertPoint would build one id at a time, without the per-id
// churn. ids must be sorted ascending without duplicates; the slice is not
// retained.
func (s *Set) MergePoint(v float64, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	if i, ok := s.findRow(v); ok {
		// Paper behaviour: fold the ids into the covering sub-range.
		s.rows[i].ids = idlist.UnionInto(s.rows[i].ids, ids)
		return
	}
	if e := s.eq.get(v); e.ids != nil {
		e.ids = idlist.UnionInto(e.ids, ids)
	} else {
		e.ids = s.slab.Copy(ids)
	}
}

// MergeNotEqual folds one serialized ≠ row into the set, equivalent to
// calling InsertNotEqual for each id. ids must be sorted ascending without
// duplicates; the slice is not retained.
func (s *Set) MergeNotEqual(v float64, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	i := sort.Search(len(s.ne), func(i int) bool { return s.ne[i].value >= v })
	if i < len(s.ne) && s.ne[i].value == v {
		s.ne[i].ids = idlist.UnionInto(s.ne[i].ids, ids)
		return
	}
	s.ne = append(s.ne, neEntry{})
	copy(s.ne[i+1:], s.ne[i:])
	s.ne[i] = neEntry{value: v, ids: s.slab.Copy(ids)}
}

// InsertNotEqual records a ≠ constraint: id is satisfied by any value
// other than v.
func (s *Set) InsertNotEqual(v float64, id uint64) {
	i := sort.Search(len(s.ne), func(i int) bool { return s.ne[i].value >= v })
	if i < len(s.ne) && s.ne[i].value == v {
		s.ne[i].ids = idlist.Add(s.ne[i].ids, id)
		return
	}
	s.ne = append(s.ne, neEntry{})
	copy(s.ne[i+1:], s.ne[i:])
	s.ne[i] = neEntry{value: v, ids: []uint64{id}}
}

func (s *Set) insertPoint(v float64, id uint64) {
	if i, ok := s.findRow(v); ok {
		// Paper behaviour: fold the id into the covering sub-range.
		s.rows[i].ids = idlist.Add(s.rows[i].ids, id)
		return
	}
	e := s.eq.get(v)
	e.ids = idlist.Add(e.ids, id)
}

// insertRange splices interval x carrying ids into the disjoint row list,
// splitting overlapped rows and creating new rows in the gaps. Only the
// window of rows interacting with x is rewritten: the rows are disjoint
// and sorted, so both window bounds are binary searches and an insert that
// overlaps k rows costs O(log n + k) splice work instead of rebuilding and
// re-sorting the whole slice (MergeRow pays this per merged row).
func (s *Set) insertRange(x Interval, ids []uint64) {
	// First row not entirely below x.
	start := sort.Search(len(s.rows), func(i int) bool {
		r := s.rows[i].iv
		return r.Hi > x.Lo || (r.Hi == x.Lo && !r.HiOpen && !x.LoOpen)
	})
	// First row at or past start entirely above x.
	end := start + sort.Search(len(s.rows)-start, func(i int) bool {
		r := s.rows[start+i].iv
		return r.Lo > x.Hi || (r.Lo == x.Hi && (r.LoOpen || x.HiOpen))
	})

	// Rewrite the window. Emission order is ascending by lower bound (gap
	// precedes left only when the gap is empty), so no re-sort is needed.
	seg := make([]row, 0, (end-start)*2+1)
	cursorLo, cursorOpen := x.Lo, x.LoOpen // lower bound of the uncovered remainder of x
	covered := false                       // whether the remainder of x is exhausted
	for _, r := range s.rows[start:end] {
		mid := Intersect(r.iv, x)
		if mid.Empty() {
			seg = append(seg, r)
			continue
		}
		// Gap of x strictly before this row.
		gap := Intersect(x, Interval{Lo: cursorLo, LoOpen: cursorOpen, Hi: r.iv.Lo, HiOpen: !r.iv.LoOpen})
		if !gap.Empty() {
			seg = append(seg, row{iv: gap, ids: append([]uint64(nil), ids...)})
		}
		// Part of the row below x keeps the row's ids.
		left := Intersect(r.iv, Interval{Lo: r.iv.Lo, LoOpen: r.iv.LoOpen, Hi: x.Lo, HiOpen: !x.LoOpen})
		if !left.Empty() {
			seg = append(seg, row{iv: left, ids: append([]uint64(nil), r.ids...)})
		}
		// Part of the row above x keeps the row's ids.
		right := row{iv: Intersect(r.iv, Interval{Lo: x.Hi, LoOpen: !x.HiOpen, Hi: r.iv.Hi, HiOpen: r.iv.HiOpen})}
		if !right.iv.Empty() {
			right.ids = append([]uint64(nil), r.ids...)
		}
		// Overlap gets both id sets, in the row's own list: left and right
		// hold copies.
		seg = append(seg, row{iv: mid, ids: idlist.Join(r.ids, ids)})
		if right.ids != nil {
			seg = append(seg, right)
		}
		// Advance the cursor past this row.
		cursorLo, cursorOpen = mid.Hi, !mid.HiOpen
		if cursorLo > x.Hi || (cursorLo == x.Hi && (cursorOpen || x.HiOpen)) {
			covered = true
		}
	}
	if !covered {
		gap := Intersect(x, Interval{Lo: cursorLo, LoOpen: cursorOpen, Hi: x.Hi, HiOpen: x.HiOpen})
		if !gap.Empty() {
			seg = append(seg, row{iv: gap, ids: append([]uint64(nil), ids...)})
		}
	}

	// Splice seg in place of rows[start:end], reusing capacity when it fits
	// (copy is memmove-safe for the overlapping tail shift).
	tail := len(s.rows) - end
	newLen := start + len(seg) + tail
	if cap(s.rows) >= newLen {
		old := s.rows
		s.rows = s.rows[:newLen]
		copy(s.rows[start+len(seg):], old[end:])
		copy(s.rows[start:], seg)
	} else {
		grown := make([]row, 0, newLen+newLen/2)
		grown = append(grown, s.rows[:start]...)
		grown = append(grown, seg...)
		grown = append(grown, s.rows[end:]...)
		s.rows = grown
	}
	// Fold the equality rows the new range now covers into the covering
	// rows, so that queries that stop at the range array
	// (Check_for_a_value_match's "Else") still find them. AACSE is in
	// value order, so they are one run.
	s.eq.fold(x, func(e point) bool {
		i, ok := s.findRow(e.v)
		if ok {
			s.rows[i].ids = idlist.Join(s.rows[i].ids, e.ids)
		}
		return ok
	})
}

// findRow returns the index of the row containing v. Rows are disjoint, so
// at most one matches.
func (s *Set) findRow(v float64) (int, bool) {
	// First row whose lower bound is beyond v.
	i := sort.Search(len(s.rows), func(i int) bool {
		r := s.rows[i].iv
		return r.Lo > v || (r.Lo == v && r.LoOpen)
	})
	if i > 0 && s.rows[i-1].iv.Contains(v) {
		return i - 1, true
	}
	return 0, false
}

// Query returns the ids of all subscriptions whose constraint on this
// attribute is satisfied by value v, deduplicated, in ascending order.
// This is Check_for_a_value_match (type arithmetic): scan the sub-range
// array; fall back to the equality array only when no sub-range contains
// v (the paper's "Else"). Not-equal entries contribute for every value
// other than their own.
func (s *Set) Query(v float64) []uint64 {
	// Collect once, then sort and dedup once — not a merge per ≠ entry.
	out := s.AppendMatches(nil, v)
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// AppendLists appends to dst the id lists a query for v consults, in
// place — the one statement of Check_for_a_value_match (type arithmetic):
// the sub-range row containing v; the equality row of v when no sub-range
// contains it (the paper's "Else"); every ≠ entry of another value. The
// lists are the set's own and must not be written; on a CloneMapped copy
// some are bitsets. One id may sit in two of them (a range row and a ≠
// entry). Beyond growing dst it does not allocate, and it is safe for
// concurrent readers.
func (s *Set) AppendLists(dst [][]uint64, v float64) [][]uint64 {
	if i, inRange := s.findRow(v); inRange {
		dst = append(dst, s.rows[i].ids)
	} else if ids := s.eq.find(v); len(ids) > 0 {
		dst = append(dst, ids)
	}
	for _, ne := range s.ne {
		if ne.value != v {
			dst = append(dst, ne.ids)
		}
	}
	return dst
}

// AppendMatches appends the ids of all subscriptions whose constraint on
// this attribute is satisfied by v to dst and returns the extended slice:
// the lists of AppendLists, copied (a bitset as its ids, ascending).
// Unlike Query it performs no sorting or deduplication — an id may repeat
// when it appears in more than one consulted list — and beyond growing dst
// (and the list headers, past eight lists) it does not allocate. Safe for
// concurrent readers.
func (s *Set) AppendMatches(dst []uint64, v float64) []uint64 {
	var hdr [8][]uint64
	for _, ids := range s.AppendLists(hdr[:0], v) {
		dst = idlist.Append(dst, ids, s.words)
	}
	return dst
}

// QueryInto is Query without the final allocation: it merges results into
// dst (a set keyed by id) and returns the number of distinct ids added.
// It states the consulting rule a second time on purpose, apart from
// AppendLists: the summary package's test oracle matches through it, and
// is independent of the compiled matcher only while this stays so.
func (s *Set) QueryInto(v float64, dst map[uint64]struct{}) int {
	added := 0
	note := func(ids []uint64) {
		for _, id := range idlist.List(ids, s.words) {
			if _, ok := dst[id]; !ok {
				dst[id] = struct{}{}
				added++
			}
		}
	}
	if i, inRange := s.findRow(v); inRange {
		note(s.rows[i].ids)
	} else {
		note(s.eq.find(v))
	}
	for _, ne := range s.ne {
		if ne.value != v {
			note(ne.ids)
		}
	}
	return added
}

// RemoveAll deletes every id in dead from the set in one sweep, so purging
// n tombstones costs one pass over the structure instead of n. Rows and
// entries left without ids are dropped.
func (s *Set) RemoveAll(dead map[uint64]struct{}) {
	if len(dead) == 0 {
		return
	}
	rows := s.rows[:0]
	for _, r := range s.rows {
		r.ids = idlist.Without(r.ids, dead)
		if len(r.ids) > 0 {
			rows = append(rows, r)
		}
	}
	s.rows = rows
	s.eq.removeAll(dead)
	ne := s.ne[:0]
	for _, e := range s.ne {
		e.ids = idlist.Without(e.ids, dead)
		if len(e.ids) > 0 {
			ne = append(ne, e)
		}
	}
	s.ne = ne
}

// Compact merges adjacent sub-range rows that carry identical id lists
// and whose intervals touch without a gap — the fragmentation that
// repeated insertions and removals leave behind (the paper omits its
// maintenance discussion "because of space limitation"; this is the
// obvious one). It returns the number of rows eliminated. Matching
// behaviour is unchanged.
func (s *Set) Compact() int {
	if len(s.rows) < 2 {
		return 0
	}
	out := s.rows[:1]
	merged := 0
	for _, r := range s.rows[1:] {
		last := &out[len(out)-1]
		// Touching means the upper bound of last meets the lower bound of
		// r with no value in between: same value with exactly one side
		// closed.
		touching := last.iv.Hi == r.iv.Lo && last.iv.HiOpen != r.iv.LoOpen
		if touching && slices.Equal(last.ids, r.ids) {
			last.iv.Hi, last.iv.HiOpen = r.iv.Hi, r.iv.HiOpen
			merged++
			continue
		}
		out = append(out, r)
	}
	s.rows = out
	return merged
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := NewSet(Lossy)
	out.rows = make([]row, len(s.rows))
	for i, r := range s.rows {
		out.rows[i] = row{iv: r.iv, ids: append([]uint64(nil), r.ids...)}
	}
	out.eq = s.eq.clone()
	out.ne = make([]neEntry, len(s.ne))
	for i, e := range s.ne {
		out.ne[i] = neEntry{value: e.value, ids: append([]uint64(nil), e.ids...)}
	}
	return out
}

// CloneMapped returns a deep copy of the set with every id translated by
// f over n ids, through an idlist.Mapper (whose Map gives what f and
// order must do); ids f rejects are dropped, and so are rows left without
// ids. The receiver is only read. The copy is meant to be read, not
// mutated, and its lists take the forms idlist gives them: AppendLists
// hands out a bitset as it is, while AppendMatches, Query, QueryInto and
// the row accessors hand it out as its ids, ascending. Its equality rows
// are one block.
func (s *Set) CloneMapped(n int, f func(uint64) (uint64, bool), order func([]uint64)) *Set {
	m := idlist.NewMapper(n, s.idEntries())
	out := &Set{words: idlist.Words(n)}
	out.rows = make([]row, 0, len(s.rows))
	for _, r := range s.rows {
		if ids := m.Map(r.ids, f, order); len(ids) > 0 {
			out.rows = append(out.rows, row{iv: r.iv, ids: ids})
		}
	}
	out.eq = s.eq.compile(func(ids []uint64) []uint64 { return m.Map(ids, f, order) })
	out.ne = make([]neEntry, 0, len(s.ne))
	for _, e := range s.ne {
		if ids := m.Map(e.ids, f, order); len(ids) > 0 {
			out.ne = append(out.ne, neEntry{value: e.value, ids: ids})
		}
	}
	return out
}

// Stats describes the set's shape for the size model of equation (1).
type Stats struct {
	NumRanges   int // n_sr: rows in AACSSR
	NumEq       int // n_e: rows in AACSE
	NumNE       int // not-equal entries (extension; zero in paper workloads)
	IDEntries   int // total subscription-id list entries across all rows
	DistinctIDs int
}

// Stats computes the set's shape.
func (s *Set) Stats() Stats {
	var st Stats
	distinct := make(map[uint64]struct{})
	st.NumRanges = len(s.rows)
	st.NumEq = s.eq.len()
	st.NumNE = len(s.ne)
	for _, r := range s.rows {
		st.IDEntries += len(r.ids)
		for _, id := range r.ids {
			distinct[id] = struct{}{}
		}
	}
	s.eq.all(func(e *point) {
		st.IDEntries += len(e.ids)
		for _, id := range e.ids {
			distinct[id] = struct{}{}
		}
	})
	for _, e := range s.ne {
		st.IDEntries += len(e.ids)
		for _, id := range e.ids {
			distinct[id] = struct{}{}
		}
	}
	st.DistinctIDs = len(distinct)
	return st
}

// SizeBytes returns the set's size under equation (1) of the paper:
// 2·n_sr·s_st (min and max columns) + n_e·s_st + ΣL_a·s_id, with the
// not-equal extension costed like equality rows. It is computed directly
// from row lengths — the propagation loop calls this every round, so it
// must not build Stats' DistinctIDs map.
func (s *Set) SizeBytes(sst, sid int) int {
	return 2*len(s.rows)*sst + (s.eq.len()+len(s.ne))*sst + s.idEntries()*sid
}

// idEntries returns ΣL_a: the id-list entries across all rows.
func (s *Set) idEntries() int {
	entries := 0
	for _, r := range s.rows {
		entries += len(r.ids)
	}
	s.eq.all(func(e *point) { entries += len(e.ids) })
	for _, e := range s.ne {
		entries += len(e.ids)
	}
	return entries
}

// RowView exposes one AACSSR row for serialization and rendering.
type RowView struct {
	Interval Interval
	IDs      []uint64
}

// Rows returns the sub-range rows in order. The id slices are shared
// (a bitset of a CloneMapped copy is expanded into a new list); callers
// must not mutate them.
func (s *Set) Rows() []RowView {
	out := make([]RowView, len(s.rows))
	for i, r := range s.rows {
		out[i] = RowView{Interval: r.iv, IDs: idlist.List(r.ids, s.words)}
	}
	return out
}

// EqView exposes one AACSE row.
type EqView struct {
	Value float64
	IDs   []uint64
}

// EqRows returns the equality rows in value order.
func (s *Set) EqRows() []EqView {
	out := make([]EqView, 0, s.eq.len())
	s.eq.all(func(e *point) {
		out = append(out, EqView{Value: e.v, IDs: idlist.List(e.ids, s.words)})
	})
	return out
}

// NeRows returns the not-equal rows sorted by value.
func (s *Set) NeRows() []EqView {
	out := make([]EqView, 0, len(s.ne))
	for _, e := range s.ne {
		out = append(out, EqView{Value: e.value, IDs: idlist.List(e.ids, s.words)})
	}
	return out
}

// String renders the set in the style of the paper's Figure 4.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("ranges:")
	for _, r := range s.rows {
		fmt.Fprintf(&b, " %s→%v", r.iv, idlist.List(r.ids, s.words))
	}
	b.WriteString(" eq:")
	for _, e := range s.EqRows() {
		fmt.Fprintf(&b, " %g→%v", e.Value, e.IDs)
	}
	if len(s.ne) > 0 {
		b.WriteString(" ne:")
		for _, e := range s.ne {
			fmt.Fprintf(&b, " %g→%v", e.value, idlist.List(e.ids, s.words))
		}
	}
	return b.String()
}

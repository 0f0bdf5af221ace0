package strmatch

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/subsum/subsum/internal/idlist"
	"github.com/subsum/subsum/internal/schema"
)

// Set is the SACS for a single string attribute: generalizing pattern rows
// plus a not-equal list. Each row holds the ids of the subscriptions whose
// constraint the row's pattern covers.
//
// Internally, equality rows (by far the most common constraint in the
// paper's workloads) live in a hash map for O(1) duplicate detection,
// while genuine pattern rows (prefix/suffix/contains/glob) live in a small
// slice scanned linearly. The invariant ties them together: no equality
// row's text is covered by any pattern row (covered equalities are folded
// into the covering row at insertion time, as Section 3.1 prescribes).
//
// The zero value is not ready; use NewSet.
type Set struct {
	pats []Row               // non-equality pattern rows
	eq   map[string][]uint64 // equality rows: text → ids
	ne   map[string][]uint64 // ≠ entries: satisfied by any other value

	// idx is the operator-class index over pats, built lazily by index()
	// and reset to nil whenever pats changes shape. Atomic so that
	// concurrent readers racing to build the first index after a mutation
	// stay benign (both build identical values).
	idx atomic.Pointer[opIndex]

	// slab backs the id lists MergeRowBytes retains. Never shared between
	// sets (Clone builds a fresh set).
	slab idlist.Slab
}

// internPool canonicalizes SACS row texts decoded from wire form. Every
// propagation period re-ships the same constraint texts, so sharing one
// string per distinct text process-wide turns the per-merge string
// materialization into a read-mostly map hit. Entries are never evicted;
// the pool is bounded by the set of distinct constraint texts seen.
var internPool = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

// internText returns the canonical string for b, allocating only the
// first time a text is seen.
func internText(b []byte) string {
	internPool.RLock()
	s, ok := internPool.m[string(b)]
	internPool.RUnlock()
	if ok {
		return s
	}
	internPool.Lock()
	s, ok = internPool.m[string(b)]
	if !ok {
		s = string(b)
		internPool.m[s] = s
	}
	internPool.Unlock()
	return s
}

// Row is one SACS row: a covering pattern and its subscription-id list
// (sorted, deduplicated).
type Row struct {
	Pattern Pattern
	IDs     []uint64
}

// NewSet returns an empty SACS.
func NewSet() *Set {
	return &Set{eq: make(map[string][]uint64), ne: make(map[string][]uint64)}
}

// Insert records that subscription id has the given string constraint,
// per Section 3.1: if an existing row covers the constraint, the id joins
// that row's list; if the new constraint is more general than existing
// rows, it substitutes their patterns and absorbs their lists; otherwise a
// new row is added.
func (s *Set) Insert(p Pattern, id uint64) { s.InsertMany(p, []uint64{id}) }

// InsertMany is Insert for a batch of ids sharing one constraint.
func (s *Set) InsertMany(p Pattern, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	if !p.Op.StringOp() {
		panic(fmt.Sprintf("strmatch: non-string operator %v", p.Op))
	}
	switch p.Op {
	case schema.OpNE:
		for _, id := range ids {
			s.ne[p.Text] = idlist.Add(s.ne[p.Text], id)
		}
	case schema.OpEQ:
		if existing, ok := s.eq[p.Text]; ok {
			if merged := idlist.Join(existing, ids); len(merged) != len(existing) {
				s.eq[p.Text] = merged
			}
			return
		}
		if i := s.coveringRow(p.Text); i >= 0 {
			s.pats[i].IDs = idlist.Join(s.pats[i].IDs, ids)
			return
		}
		s.eq[p.Text] = append([]uint64(nil), ids...)
	default:
		// Covered by an existing pattern row: join it.
		for i := range s.pats {
			if Covers(s.pats[i].Pattern, p) {
				s.pats[i].IDs = idlist.Join(s.pats[i].IDs, ids)
				return
			}
		}
		// More general than existing rows: substitute and absorb.
		s.idx.Store(nil) // pattern rows change shape below
		newRow := Row{Pattern: p, IDs: append([]uint64(nil), ids...)}
		kept := s.pats[:0]
		for _, r := range s.pats {
			if Covers(p, r.Pattern) {
				newRow.IDs = idlist.Union(newRow.IDs, r.IDs)
			} else {
				kept = append(kept, r)
			}
		}
		s.pats = append(kept, newRow)
		// Absorb covered equality rows to restore the invariant.
		for text, eqIDs := range s.eq {
			if p.Matches(text) {
				newRow := &s.pats[len(s.pats)-1]
				newRow.IDs = idlist.Union(newRow.IDs, eqIDs)
				delete(s.eq, text)
			}
		}
	}
}

// coveringRow returns the index of the pattern row that covers equality
// text, or -1 when none does: the paper's fold (Section 3.1), by which an
// equality constraint a pattern row covers joins that row's id list
// instead of taking a row of its own.
func (s *Set) coveringRow(text string) int {
	for i := range s.pats {
		if s.pats[i].Pattern.Matches(text) {
			return i
		}
	}
	return -1
}

// MergeRowBytes folds one serialized SACS row into the set with the same
// result as InsertMany(Pattern{Op: op, Text: string(text)}, ids), but
// without materializing the text string when the set already has a row
// for it — the Algorithm 2 wire-merge hot path, where most incoming rows
// repeat rows the receiver merged in earlier periods. ids must be sorted
// ascending without duplicates; neither slice is retained.
func (s *Set) MergeRowBytes(op schema.Op, text []byte, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	switch op {
	case schema.OpNE:
		if existing, ok := s.ne[string(text)]; ok {
			if merged := idlist.UnionInto(existing, ids); len(merged) != len(existing) {
				s.ne[string(text)] = merged
			}
			return
		}
		s.ne[internText(text)] = s.slab.Copy(ids)
	case schema.OpEQ:
		if existing, ok := s.eq[string(text)]; ok {
			if merged := idlist.UnionInto(existing, ids); len(merged) != len(existing) {
				s.eq[string(text)] = merged
			}
			return
		}
		t := internText(text)
		if i := s.coveringRow(t); i >= 0 {
			s.pats[i].IDs = idlist.UnionInto(s.pats[i].IDs, ids)
			return
		}
		s.eq[t] = s.slab.Copy(ids)
	default:
		// An exact-match row, when present, is the unique covering row:
		// pattern rows are pairwise non-covering (Insert folds covered
		// patterns and substitutes less general ones), and any other row
		// covering this pattern would also cover the identical row.
		for i := range s.pats {
			if r := &s.pats[i]; r.Pattern.Op == op && r.Pattern.Text == string(text) {
				r.IDs = idlist.UnionInto(r.IDs, ids)
				return
			}
		}
		s.InsertMany(Pattern{Op: op, Text: internText(text)}, ids)
	}
}

// Match returns the ids of all subscriptions whose constraint is satisfied
// by value v, deduplicated, ascending — Check_for_a_value_match (type
// string).
func (s *Set) Match(v string) []uint64 {
	// Collect once, then sort and dedup once — not a merge per row.
	out := s.AppendMatches(nil, v)
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// index returns the operator-class index, building it if the pattern rows
// changed since the last lookup. Mutating the set concurrently with
// lookups is unsupported (as for every other method), but any number of
// concurrent readers are safe.
func (s *Set) index() *opIndex {
	if ix := s.idx.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(s.pats)
	s.idx.Store(ix)
	return ix
}

// AppendLists appends to dst the id lists a query for v consults, in
// place — Check_for_a_value_match (type string): the equality row of v,
// every pattern row matching v, every ≠ entry of another text. Lookup cost
// scales with the rows that can match v: equality by hash, prefix and
// suffix by one binary search per distinct pattern length, and a linear
// scan only over contains/glob rows and ≠ entries. Compiled.AppendLists
// consults the same rows of a compiled copy, where the event's own hash of
// v finds its equality row. The lists are the set's own and must not be
// written. One id may sit in two of them (a prefix row and a suffix row, or
// a row and a ≠ entry). Beyond growing dst it does not allocate.
func (s *Set) AppendLists(dst [][]uint64, v string) [][]uint64 {
	if ids, ok := s.eq[v]; ok {
		dst = append(dst, ids)
	}
	dst = s.index().appendLists(dst, s.pats, v)
	for text, ids := range s.ne {
		if text != v {
			dst = append(dst, ids)
		}
	}
	return dst
}

// AppendMatches appends the ids of all subscriptions whose constraint is
// satisfied by v to dst and returns the extended slice: the lists of
// AppendLists, copied. Unlike Match it performs no sorting or
// deduplication — an id may repeat when several rows match — and beyond
// growing dst (and the list headers, past eight lists) it does not
// allocate.
func (s *Set) AppendMatches(dst []uint64, v string) []uint64 {
	var hdr [8][]uint64
	for _, ids := range s.AppendLists(hdr[:0], v) {
		dst = append(dst, ids...)
	}
	return dst
}

// MatchInto merges matching ids into dst and returns how many distinct ids
// were added. It states the consulting rule a second time on purpose, by
// linear scan and apart from AppendLists: the summary package's test
// oracle matches through it, and is independent of the compiled matcher
// (and of the operator-class index) only while this stays so.
func (s *Set) MatchInto(v string, dst map[uint64]struct{}) int {
	added := 0
	note := func(ids []uint64) {
		for _, id := range ids {
			if _, ok := dst[id]; !ok {
				dst[id] = struct{}{}
				added++
			}
		}
	}
	note(s.eq[v])
	for _, r := range s.pats {
		if r.Pattern.Matches(v) {
			note(r.IDs)
		}
	}
	for text, ids := range s.ne {
		if text != v {
			note(ids)
		}
	}
	return added
}

// RemoveAll deletes every id in dead from the set in one sweep, so purging
// n tombstones costs one pass over the structure instead of n. Rows and
// entries left empty are dropped. Generalized patterns persist for the
// remaining ids (the summary does not track which id contributed which
// original constraint — it is summary-centric by design).
func (s *Set) RemoveAll(dead map[uint64]struct{}) {
	if len(dead) == 0 {
		return
	}
	pats := s.pats[:0]
	dropped := false
	for _, r := range s.pats {
		r.IDs = idlist.Without(r.IDs, dead)
		if len(r.IDs) > 0 {
			pats = append(pats, r)
		} else {
			dropped = true
		}
	}
	s.pats = pats
	if dropped {
		s.idx.Store(nil) // row positions shifted
	}
	for text, ids := range s.eq {
		ids = idlist.Without(ids, dead)
		if len(ids) == 0 {
			delete(s.eq, text)
		} else {
			s.eq[text] = ids
		}
	}
	for text, ids := range s.ne {
		ids = idlist.Without(ids, dead)
		if len(ids) == 0 {
			delete(s.ne, text)
		} else {
			s.ne[text] = ids
		}
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	out := NewSet()
	out.pats = make([]Row, len(s.pats))
	for i, r := range s.pats {
		out.pats[i] = Row{Pattern: r.Pattern, IDs: append([]uint64(nil), r.IDs...)}
	}
	for text, ids := range s.eq {
		out.eq[text] = append([]uint64(nil), ids...)
	}
	for text, ids := range s.ne {
		out.ne[text] = append([]uint64(nil), ids...)
	}
	return out
}

// Rows returns all rows — pattern rows in insertion order followed by
// equality rows sorted by text. ID slices are shared; do not mutate.
func (s *Set) Rows() []Row {
	out := make([]Row, 0, len(s.pats)+len(s.eq))
	for _, r := range s.pats {
		out = append(out, Row{Pattern: r.Pattern, IDs: r.IDs})
	}
	texts := make([]string, 0, len(s.eq))
	for text := range s.eq {
		texts = append(texts, text)
	}
	sort.Strings(texts)
	for _, text := range texts {
		out = append(out, Row{Pattern: Pattern{Op: schema.OpEQ, Text: text}, IDs: s.eq[text]})
	}
	return out
}

// NeRows returns the not-equal entries sorted by text.
func (s *Set) NeRows() []Row {
	out := make([]Row, 0, len(s.ne))
	texts := make([]string, 0, len(s.ne))
	for text := range s.ne {
		texts = append(texts, text)
	}
	sort.Strings(texts)
	for _, text := range texts {
		out = append(out, Row{Pattern: Pattern{Op: schema.OpNE, Text: text}, IDs: s.ne[text]})
	}
	return out
}

// Stats describes the set's shape for equation (2) of the paper.
type Stats struct {
	NumRows      int // n_r
	NumNE        int
	IDEntries    int // ΣL_s
	PatternBytes int // Σ per-row string value sizes (s_sv is their mean)
}

// Stats computes the set's shape.
func (s *Set) Stats() Stats {
	var st Stats
	st.NumRows = len(s.pats) + len(s.eq)
	st.NumNE = len(s.ne)
	for _, r := range s.pats {
		st.IDEntries += len(r.IDs)
		st.PatternBytes += len(r.Pattern.Text)
	}
	for text, ids := range s.eq {
		st.IDEntries += len(ids)
		st.PatternBytes += len(text)
	}
	for text, ids := range s.ne {
		st.IDEntries += len(ids)
		st.PatternBytes += len(text)
	}
	return st
}

// SizeBytes returns the set's size under equation (2): n_r rows of string
// values plus ΣL_s subscription ids of s_id bytes. Row string sizes use
// the actual pattern lengths (whose generated average is the paper's
// s_sv = 10). Computed directly from row lengths — the propagation loop
// calls this every round, so it must not take Stats' full walk.
func (s *Set) SizeBytes(sid int) int {
	bytes, entries := 0, 0
	for _, r := range s.pats {
		entries += len(r.IDs)
		bytes += len(r.Pattern.Text)
	}
	for text, ids := range s.eq {
		entries += len(ids)
		bytes += len(text)
	}
	for text, ids := range s.ne {
		entries += len(ids)
		bytes += len(text)
	}
	rows := len(s.pats) + len(s.eq)
	return bytes + (rows + len(s.ne)) + entries*sid
}

// String renders the set in the style of the paper's Figure 5.
func (s *Set) String() string {
	var b strings.Builder
	for i, r := range s.Rows() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s→%v", r.Pattern, r.IDs)
	}
	for _, r := range s.NeRows() {
		fmt.Fprintf(&b, " %s→%v", r.Pattern, r.IDs)
	}
	return b.String()
}

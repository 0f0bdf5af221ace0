package interval

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/idlist"
)

// checkInvariants asserts the AACSSR structural invariants: rows sorted,
// pairwise disjoint, none empty, all id lists non-empty and sorted, and no
// equality value inside any row.
func checkInvariants(t *testing.T, s *Set) {
	t.Helper()
	rows := s.Rows()
	for i, r := range rows {
		if r.Interval.Empty() {
			t.Fatalf("row %d empty: %v", i, r.Interval)
		}
		if len(r.IDs) == 0 {
			t.Fatalf("row %d has no ids", i)
		}
		for j := 1; j < len(r.IDs); j++ {
			if r.IDs[j-1] >= r.IDs[j] {
				t.Fatalf("row %d ids not sorted/deduped: %v", i, r.IDs)
			}
		}
		if i > 0 && Overlaps(rows[i-1].Interval, r.Interval) {
			t.Fatalf("rows %d and %d overlap: %v %v", i-1, i, rows[i-1].Interval, r.Interval)
		}
		if i > 0 && !lowerLess(rows[i-1].Interval, r.Interval) {
			t.Fatalf("rows %d and %d out of order", i-1, i)
		}
	}
	for _, e := range s.EqRows() {
		for _, r := range rows {
			if r.Interval.Contains(e.Value) {
				t.Fatalf("equality value %g inside row %v", e.Value, r.Interval)
			}
		}
	}
}

// lowerLess orders intervals by lower bound; a closed bound precedes an
// open bound at the same value.
func lowerLess(a, b Interval) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return !a.LoOpen && b.LoOpen
}

// TestPaperFigure4 reproduces the AACS of Figure 4: subscription S1 has
// 8.30 < price < 8.70 and S2 has price = 8.20.
func TestPaperFigure4(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(8.30, 8.70, true, true), 1)
	s.Insert(Point(8.20), 2)
	checkInvariants(t, s)
	rows := s.Rows()
	if len(rows) != 1 || !rows[0].Interval.Equal(Range(8.30, 8.70, true, true)) {
		t.Fatalf("rows = %v", rows)
	}
	if !reflect.DeepEqual(rows[0].IDs, []uint64{1}) {
		t.Fatalf("row ids = %v", rows[0].IDs)
	}
	eq := s.EqRows()
	if len(eq) != 1 || eq[0].Value != 8.20 || !reflect.DeepEqual(eq[0].IDs, []uint64{2}) {
		t.Fatalf("eq = %v", eq)
	}
	// The Figure 2 event has price 8.40: S1 matches, S2 does not.
	if got := s.Query(8.40); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("Query(8.40) = %v", got)
	}
	if got := s.Query(8.20); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("Query(8.20) = %v", got)
	}
	if got := s.Query(9.0); len(got) != 0 {
		t.Fatalf("Query(9.0) = %v", got)
	}
}

func TestInsertRangeSplitsOverlap(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(1, 5, false, false), 1)
	s.Insert(Range(3, 8, false, false), 2)
	checkInvariants(t, s)
	// Expect [1,3), [3,5], (5,8].
	rows := s.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	wantIvs := []Interval{
		Range(1, 3, false, true),
		Range(3, 5, false, false),
		Range(5, 8, true, false),
	}
	wantIDs := [][]uint64{{1}, {1, 2}, {2}}
	for i := range wantIvs {
		if !rows[i].Interval.Equal(wantIvs[i]) {
			t.Errorf("row %d = %v, want %v", i, rows[i].Interval, wantIvs[i])
		}
		if !reflect.DeepEqual(rows[i].IDs, wantIDs[i]) {
			t.Errorf("row %d ids = %v, want %v", i, rows[i].IDs, wantIDs[i])
		}
	}
	for v, want := range map[float64][]uint64{
		2: {1}, 3: {1, 2}, 4: {1, 2}, 5: {1, 2}, 6: {2}, 9: nil, 0: nil,
	} {
		got := s.Query(v)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Query(%g) = %v, want %v", v, got, want)
		}
	}
}

func TestInsertRangeCoveringMultipleRowsAndGaps(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(1, 2, false, false), 1)
	s.Insert(Range(4, 5, false, false), 2)
	s.Insert(Range(0, 6, false, false), 3)
	checkInvariants(t, s)
	for v, want := range map[float64][]uint64{
		0.5: {3}, 1.5: {1, 3}, 3: {3}, 4.5: {2, 3}, 5.5: {3},
	} {
		if got := s.Query(v); !reflect.DeepEqual(got, want) {
			t.Errorf("Query(%g) = %v, want %v", v, got, want)
		}
	}
}

func TestUnboundedConstraints(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Above(130000, false), 2) // volume > 130000
	s.Insert(Below(8.05, false), 7)   // low < 8.05 (different attribute in
	// reality, but the structure is generic)
	checkInvariants(t, s)
	if got := s.Query(132700); !reflect.DeepEqual(got, []uint64{2, 7}) {
		// 132700 > 130000 satisfies id 2, and 132700 < … no: Below(8.05)
		// does not contain 132700, so only id 2.
		if !reflect.DeepEqual(got, []uint64{2}) {
			t.Fatalf("Query(132700) = %v", got)
		}
	}
	if got := s.Query(5); !reflect.DeepEqual(got, []uint64{7}) {
		t.Fatalf("Query(5) = %v", got)
	}
}

func TestLossyEqualityFoldsIntoCoveringRange(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(8, 9, false, false), 1)
	s.Insert(Point(8.5), 2) // inside the range: folds into the row
	checkInvariants(t, s)
	if len(s.EqRows()) != 0 {
		t.Fatalf("eq rows = %v, want folded", s.EqRows())
	}
	// The fold makes id 2 visible across the whole row (paper's lossy
	// pre-filter), including at 8.5 (no false negative).
	if got := s.Query(8.5); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Query(8.5) = %v", got)
	}
	if got := s.Query(8.7); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Query(8.7) = %v (lossy fold should over-approximate)", got)
	}
}

func TestLossyRangeInsertMigratesEqualities(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Point(8.20), 2)
	s.Insert(Range(8, 9, false, false), 1) // arrives after the equality
	checkInvariants(t, s)
	if len(s.EqRows()) != 0 {
		t.Fatalf("eq rows = %v, want migrated", s.EqRows())
	}
	// No false negative at the equality point.
	got := s.Query(8.20)
	if !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Query(8.20) = %v", got)
	}
}

// TestExactEqualityOutsideRanges: an equality no sub-range covers stays in
// AACSE and matches its own value only — folding is lossy inside ranges,
// exact outside them.
func TestExactEqualityOutsideRanges(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Point(8.20), 2)
	s.Insert(Range(8.5, 9, false, false), 1)
	checkInvariants(t, s)
	if got := s.Query(8.20); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("Query(8.20) = %v", got)
	}
	if got := s.Query(8.7); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("Query(8.7) = %v", got)
	}
}

func TestNotEqual(t *testing.T) {
	s := NewSet(Lossy)
	s.InsertNotEqual(5, 1)
	s.InsertNotEqual(5, 2)
	s.InsertNotEqual(7, 3)
	checkInvariants(t, s)
	if got := s.Query(5); !reflect.DeepEqual(got, []uint64{3}) {
		t.Fatalf("Query(5) = %v", got)
	}
	if got := s.Query(7); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Query(7) = %v", got)
	}
	if got := s.Query(6); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("Query(6) = %v", got)
	}
}

func TestEmptyIntervalIgnored(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(5, 4, false, false), 1)
	s.Insert(Intersect(Below(1, false), Above(2, false)), 2)
	if len(s.Rows()) != 0 || len(s.EqRows()) != 0 {
		t.Fatal("empty intervals created rows")
	}
}

func TestDuplicateInsertIsIdempotent(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(1, 5, false, false), 1)
	s.Insert(Range(1, 5, false, false), 1)
	checkInvariants(t, s)
	if got := s.Query(3); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("Query(3) = %v", got)
	}
	st := s.Stats()
	if st.IDEntries != 1 {
		t.Fatalf("IDEntries = %d, want 1", st.IDEntries)
	}
}

// removeOne deletes id through RemoveAll, the one removal path a Summary
// takes (its tombstone purge).
func removeOne(s *Set, id uint64) { s.RemoveAll(map[uint64]struct{}{id: {}}) }

func TestRemove(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(1, 5, false, false), 1)
	s.Insert(Range(3, 8, false, false), 2)
	s.Insert(Point(10), 3)
	s.InsertNotEqual(0, 4)
	removeOne(s, 2)
	checkInvariants(t, s)
	if got := s.Query(6); !reflect.DeepEqual(got, []uint64{4}) {
		t.Fatalf("Query(6) after remove = %v", got)
	}
	if got := s.Query(4); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Fatalf("Query(4) after remove = %v", got)
	}
	removeOne(s, 3)
	if len(s.EqRows()) != 0 {
		t.Fatal("eq row not removed")
	}
	removeOne(s, 4)
	if len(s.NeRows()) != 0 {
		t.Fatal("ne row not removed")
	}
	removeOne(s, 999) // absent id: no-op
	checkInvariants(t, s)
}

func TestMerge(t *testing.T) {
	a := NewSet(Lossy)
	a.Insert(Range(1, 5, false, false), 1)
	a.Insert(Point(10), 2)
	b := NewSet(Lossy)
	b.Insert(Range(3, 8, false, false), 3)
	b.Insert(Point(20), 4)
	b.InsertNotEqual(0, 5)
	// Fold b's rows in as a wire merge does.
	for _, r := range b.Rows() {
		a.MergeRow(r.Interval, r.IDs)
	}
	for _, e := range b.EqRows() {
		a.MergePoint(e.Value, e.IDs)
	}
	for _, e := range b.NeRows() {
		a.MergeNotEqual(e.Value, e.IDs)
	}
	checkInvariants(t, a)
	for v, want := range map[float64][]uint64{
		2:  {1, 5},
		4:  {1, 3, 5},
		7:  {3, 5},
		10: {2, 5},
		20: {4, 5},
		0:  nil,
	} {
		got := a.Query(v)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Query(%g) = %v, want %v", v, got, want)
		}
	}
}

func TestStatsAndSizeBytes(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(8.30, 8.70, true, true), 1)
	s.Insert(Point(8.20), 2)
	st := s.Stats()
	if st.NumRanges != 1 || st.NumEq != 1 || st.IDEntries != 2 || st.DistinctIDs != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	// Equation (1) with s_st = s_id = 4: 2·1·4 + 1·4 + 2·4 = 20.
	if got := s.SizeBytes(4, 4); got != 20 {
		t.Fatalf("SizeBytes = %d, want 20", got)
	}
}

func TestQueryInto(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(1, 5, false, false), 1)
	s.Insert(Range(3, 8, false, false), 2)
	dst := make(map[uint64]struct{})
	added := s.QueryInto(4, dst)
	if added != 2 || len(dst) != 2 {
		t.Fatalf("QueryInto added %d, dst %v", added, dst)
	}
	// Re-querying adds nothing new.
	if added := s.QueryInto(4, dst); added != 0 {
		t.Fatalf("second QueryInto added %d", added)
	}
}

func TestClone(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(1, 5, false, false), 1)
	s.Insert(Point(10), 2)
	s.InsertNotEqual(3, 4)
	c := s.Clone()
	c.Insert(Range(6, 9, false, false), 7)
	removeOne(c, 1)
	// v=3 hits row [1,5] (id 1) but not the ≠3 entry (id 4).
	if got := s.Query(3); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("clone mutated original: %v", got)
	}
	if got := s.Query(2); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Fatalf("clone mutated original: %v", got)
	}
	if got := s.Query(7); len(got) != 1 || got[0] != 4 {
		t.Fatalf("clone mutated original rows: %v", got)
	}
}

// constraintRef is the reference model: one inserted constraint.
type constraintRef struct {
	id uint64
	iv Interval // for ranges and points
	ne *float64 // for not-equal constraints
}

func (c constraintRef) satisfied(v float64) bool {
	if c.ne != nil {
		return v != *c.ne
	}
	return c.iv.Contains(v)
}

// TestRandomizedAgainstReference drives random inserts/removes and checks
// Query against a brute-force reference. In "lossy" equalities land among
// the ranges: the fold may over-report, but must never produce a false
// negative. In "exact" every equality lies apart from every range (ranges
// stay inside [-20, 20], equalities at 80 and up, as the workload generator
// places its equalities): the fold never fires, so Query must agree with
// the reference exactly.
func TestRandomizedAgainstReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apart bool
	}{{"lossy", false}, {"exact", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			s := NewSet(Lossy)
			var refs []constraintRef
			nextID := uint64(1)
			randVal := func() float64 { return float64(rng.Intn(41) - 20) }
			// pointVal is where equalities go, probeShift where a probe may
			// be moved to reach them.
			pointVal, probeShift := randVal, func() float64 { return 0 }
			if tc.apart {
				pointVal = func() float64 { return 100 + randVal() }
				probeShift = func() float64 { return float64(rng.Intn(2)) * 100 }
			}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // range insert
					lo, hi := randVal(), randVal()
					if lo > hi {
						lo, hi = hi, lo
					}
					if tc.apart && lo == hi {
						hi++ // [v, v] is an equality, and it would land among the ranges
					}
					iv := Range(lo, hi, rng.Intn(2) == 0, rng.Intn(2) == 0)
					id := nextID
					nextID++
					s.Insert(iv, id)
					if !iv.Empty() {
						refs = append(refs, constraintRef{id: id, iv: iv})
					}
				case op < 7: // point insert
					v := pointVal()
					id := nextID
					nextID++
					s.Insert(Point(v), id)
					refs = append(refs, constraintRef{id: id, iv: Point(v)})
				case op < 8: // not-equal insert
					v := randVal()
					id := nextID
					nextID++
					s.InsertNotEqual(v, id)
					refs = append(refs, constraintRef{id: id, ne: &v})
				default: // remove a random id
					if len(refs) == 0 {
						continue
					}
					i := rng.Intn(len(refs))
					removeOne(s, refs[i].id)
					refs = append(refs[:i], refs[i+1:]...)
				}
				if step%50 == 0 {
					checkInvariantsQuiet(t, s)
				}
				// Probe a few random values.
				for probe := 0; probe < 4; probe++ {
					v := randVal() + float64(rng.Intn(3))*0.5 + probeShift()
					got := s.Query(v)
					gotSet := make(map[uint64]bool, len(got))
					for _, id := range got {
						gotSet[id] = true
					}
					want := 0
					for _, ref := range refs {
						if !ref.satisfied(v) {
							continue
						}
						want++
						if !gotSet[ref.id] {
							t.Fatalf("step %d: false negative at %g: id %d missing (got %v)\nset: %v",
								step, v, ref.id, got, s)
						}
					}
					if tc.apart && len(got) != want {
						t.Fatalf("step %d: no equality lies inside a range, yet Query(%g) = %d ids, want %d\nset: %v",
							step, v, len(got), want, s)
					}
				}
			}
			if tc.apart && len(s.EqRows()) == 0 {
				t.Fatal("fixture is vacuous: no equality row survived to the end")
			}
		})
	}
}

func checkInvariantsQuiet(t *testing.T, s *Set) {
	t.Helper()
	rows := s.Rows()
	for i := 1; i < len(rows); i++ {
		if Overlaps(rows[i-1].Interval, rows[i].Interval) {
			t.Fatalf("rows overlap: %v %v", rows[i-1].Interval, rows[i].Interval)
		}
	}
}

func TestCompactMergesTouchingRowsWithEqualIDs(t *testing.T) {
	s := NewSet(Lossy)
	// Build fragmentation: two subs over [1,9], then remove the splitter.
	s.Insert(Range(1, 9, false, false), 1)
	s.Insert(Range(3, 5, false, false), 2)
	removeOne(s, 2)
	if len(s.Rows()) != 3 {
		t.Fatalf("rows before compact = %v", s.Rows())
	}
	if got := s.Compact(); got != 2 {
		t.Fatalf("Compact merged %d rows, want 2", got)
	}
	rows := s.Rows()
	if len(rows) != 1 || !rows[0].Interval.Equal(Range(1, 9, false, false)) {
		t.Fatalf("rows after compact = %v", rows)
	}
	checkInvariants(t, s)
	// Behaviour unchanged.
	for v, want := range map[float64]int{0: 0, 1: 1, 4: 1, 9: 1, 10: 0} {
		if got := len(s.Query(v)); got != want {
			t.Fatalf("Query(%g) = %d ids, want %d", v, got, want)
		}
	}
}

func TestCompactKeepsDistinctRows(t *testing.T) {
	s := NewSet(Lossy)
	s.Insert(Range(1, 3, false, true), 1)  // [1,3)
	s.Insert(Range(3, 5, false, false), 2) // [3,5] — touching but different ids
	if got := s.Compact(); got != 0 {
		t.Fatalf("Compact merged %d rows across different id lists", got)
	}
	// Gap between rows: same ids but not touching.
	s2 := NewSet(Lossy)
	s2.Insert(Range(1, 2, false, false), 1)
	s2.Insert(Range(3, 4, false, false), 1)
	if got := s2.Compact(); got != 0 {
		t.Fatalf("Compact merged %d rows across a gap", got)
	}
	// Double-open touch ((1,3) + (3,5)) leaves value 3 uncovered: no merge.
	s3 := NewSet(Lossy)
	s3.Insert(Range(1, 3, true, true), 1)
	s3.Insert(Range(3, 5, true, true), 1)
	if got := s3.Compact(); got != 0 {
		t.Fatalf("Compact merged %d rows across an excluded point", got)
	}
}

// TestCompactBehaviourPreservedRandomized: Compact never changes Query
// results.
func TestCompactBehaviourPreservedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		s := NewSet(Lossy)
		ids := []uint64{}
		for i := uint64(1); i <= 30; i++ {
			lo := float64(rng.Intn(20))
			hi := lo + float64(rng.Intn(8))
			s.Insert(Range(lo, hi, rng.Intn(2) == 0, rng.Intn(2) == 0), i)
			ids = append(ids, i)
		}
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				removeOne(s, id)
			}
		}
		before := map[float64][]uint64{}
		for v := -1.0; v <= 30; v += 0.5 {
			before[v] = s.Query(v)
		}
		s.Compact()
		checkInvariantsQuiet(t, s)
		for v, want := range before {
			if !reflect.DeepEqual(s.Query(v), want) {
				t.Fatalf("trial %d: Query(%g) changed after Compact: %v vs %v",
					trial, v, s.Query(v), want)
			}
		}
	}
}

// TestCloneMappedForms: a CloneMapped copy over n ids keeps a list of
// fewer than ⌈n/64⌉ kept ids as an ascending list and stores a longer one
// as the bitset of its ids, and every reader of the copy — Query (through
// AppendMatches), QueryInto and the row accessors — returns what the
// original returns under the mapping.
func TestCloneMappedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 200 // four words: lists of one to three kept ids stay lists
	s := NewSet(Lossy)
	for i := 0; i < 300; i++ {
		key := uint64(1000 + rng.Intn(2*n))
		v := float64(rng.Intn(40))
		switch rng.Intn(4) {
		case 0:
			s.Insert(Point(v), key)
		case 1:
			s.InsertNotEqual(v, key)
		default:
			s.Insert(Interval{Lo: v, Hi: v + float64(1+rng.Intn(8))}, key)
		}
	}
	// Odd keys are dropped; the rest map in reverse, so lists reach the
	// order hook descending.
	f := func(key uint64) (uint64, bool) { return n - 1 - (key-1000)/2, key%2 == 0 }
	mapped := func(keys []uint64) []uint64 {
		var out []uint64
		for _, key := range keys {
			if m, ok := f(key); ok {
				out = append(out, m)
			}
		}
		slices.Sort(out)
		return out
	}
	c := s.CloneMapped(n, f, slices.Sort[[]uint64])
	words := idlist.Words(n)
	lists, bitsets := 0, 0
	for v := -0.5; v <= 50; v += 0.5 {
		for _, ids := range c.AppendLists(nil, v) {
			if len(ids) == words {
				bitsets++
				continue
			}
			lists++
			if len(ids) >= words || !slices.IsSorted(ids) || ids[len(ids)-1] >= n {
				t.Fatalf("value %g consults list %v: want fewer than %d ascending ids below %d", v, ids, words, n)
			}
		}
		if got, want := c.Query(v), mapped(s.Query(v)); !slices.Equal(got, want) {
			t.Fatalf("copy's Query(%g) = %v, original mapped %v", v, got, want)
		}
		into := map[uint64]struct{}{}
		if c.QueryInto(v, into); len(into) != len(mapped(s.Query(v))) {
			t.Fatalf("copy's QueryInto(%g) added %d ids, want %d", v, len(into), len(mapped(s.Query(v))))
		}
	}
	if lists == 0 || bitsets == 0 {
		t.Fatalf("fixture consulted %d lists and %d bitsets; want both forms", lists, bitsets)
	}
	var want []RowView
	for _, r := range s.Rows() {
		if ids := mapped(r.IDs); len(ids) > 0 {
			want = append(want, RowView{Interval: r.Interval, IDs: ids})
		}
	}
	if got := c.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("copy's rows %v, original mapped %v", got, want)
	}
	for name, views := range map[string][2][]EqView{"equality": {s.EqRows(), c.EqRows()}, "≠": {s.NeRows(), c.NeRows()}} {
		var want []EqView
		for _, e := range views[0] {
			if ids := mapped(e.IDs); len(ids) > 0 {
				want = append(want, EqView{Value: e.Value, IDs: ids})
			}
		}
		if len(views[1])+len(want) > 0 && !reflect.DeepEqual(views[1], want) {
			t.Fatalf("copy's %s rows %v, original mapped %v", name, views[1], want)
		}
	}
}

// TestRangeInsertJoinsRowsInPlace: ids joining an existing range row one
// at a time grow its list as append does, so a thousand joins allocate
// what an insert that adds no id does, plus a few lists, not one per join;
// and so do the points a new range folds in.
func TestRangeInsertJoinsRowsInPlace(t *testing.T) {
	s := NewSet(Lossy)
	iv := Range(0, 100, false, true)
	s.Insert(iv, 0)
	base := testing.AllocsPerRun(100, func() { s.Insert(iv, 0) })
	id := uint64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Insert(iv, id)
		id++
	})
	if allocs > base+0.05 {
		t.Fatalf("joining a range row: %.3f allocations per id, %.3f for an insert adding none", allocs, base)
	}
	if rows := s.Rows(); len(rows) != 1 || len(rows[0].IDs) != 1+1001 || !slices.IsSorted(rows[0].IDs) {
		t.Fatalf("rows = %d, want one row of 1002 sorted ids", len(rows))
	}

	// The fold: a range over 1 000 points, each of its own id, takes them
	// into one new row a point at a time.
	s = NewSet(Lossy)
	for i := range 1000 {
		s.Insert(Point(float64(i)), uint64(i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Insert(Range(-1, 1000, false, false), 1000)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 100 {
		t.Fatalf("folding 1 000 points into a range row: %d allocations", n)
	}
	if rows := s.Rows(); len(rows) != 1 || len(rows[0].IDs) != 1001 || len(s.EqRows()) != 0 {
		t.Fatalf("after the fold: %d rows, %d equality rows", len(rows), len(s.EqRows()))
	}
}

// benchPoints is the number of distinct points the insert benchmarks hold.
const benchPoints = 100_000

// BenchmarkInsertPointsAscending inserts distinct points in ascending
// order, as the workload generator's fresh values arrive.
func BenchmarkInsertPointsAscending(b *testing.B) {
	for range b.N {
		s := NewSet(Lossy)
		for i := range benchPoints {
			s.Insert(Point(float64(i)), uint64(i))
		}
	}
}

// BenchmarkInsertPointsRandom inserts the same points in random order.
func BenchmarkInsertPointsRandom(b *testing.B) {
	order := rand.New(rand.NewSource(1)).Perm(benchPoints)
	b.ResetTimer()
	for range b.N {
		s := NewSet(Lossy)
		for _, i := range order {
			s.Insert(Point(float64(i)), uint64(i))
		}
	}
}

// BenchmarkInsertRangesOverPoints inserts 1 000 ranges over a set of
// distinct points, each range covering a few of them: the fold of AACSE
// into the new rows, which must cost the points a range covers and not
// the set's whole AACSE.
func BenchmarkInsertRangesOverPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ranges := make([]Interval, 1000)
	for i := range ranges {
		lo := float64(rng.Intn(benchPoints))
		ranges[i] = Range(lo, lo+float64(rng.Intn(4)), rng.Intn(2) == 0, rng.Intn(2) == 0)
	}
	for range b.N {
		b.StopTimer()
		s := NewSet(Lossy)
		for i := range benchPoints {
			s.Insert(Point(float64(i)), uint64(i))
		}
		b.StartTimer()
		for i, iv := range ranges {
			s.Insert(iv, uint64(benchPoints+i))
		}
	}
}

package strmatch

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/idlist"
	"github.com/subsum/subsum/internal/schema"
)

func pat(op schema.Op, text string) Pattern { return New(op, text) }

func TestNewCanonicalizesGlobs(t *testing.T) {
	cases := []struct {
		in   Pattern
		want Pattern
	}{
		{New(schema.OpGlob, "abc"), Pattern{Op: schema.OpEQ, Text: "abc"}},
		{New(schema.OpGlob, "abc*"), Pattern{Op: schema.OpPrefix, Text: "abc"}},
		{New(schema.OpGlob, "*abc"), Pattern{Op: schema.OpSuffix, Text: "abc"}},
		{New(schema.OpGlob, "*abc*"), Pattern{Op: schema.OpContains, Text: "abc"}},
		{New(schema.OpGlob, "a*b"), Pattern{Op: schema.OpGlob, Text: "a*b"}},
		{New(schema.OpPrefix, "abc"), Pattern{Op: schema.OpPrefix, Text: "abc"}},
	}
	for _, c := range cases {
		if c.in != c.want {
			t.Errorf("got %+v, want %+v", c.in, c.want)
		}
	}
}

func TestPatternMatches(t *testing.T) {
	cases := []struct {
		p    Pattern
		s    string
		want bool
	}{
		{pat(schema.OpEQ, "OTE"), "OTE", true},
		{pat(schema.OpEQ, "OTE"), "OT", false},
		{pat(schema.OpNE, "OTE"), "OT", true},
		{pat(schema.OpNE, "OTE"), "OTE", false},
		{pat(schema.OpPrefix, "OT"), "OTE", true},
		{pat(schema.OpSuffix, "SE"), "NYSE", true},
		{pat(schema.OpContains, "YS"), "NYSE", true},
		{pat(schema.OpGlob, "m*t"), "micronet", true},
		{pat(schema.OpGlob, "m*t"), "omicron", false},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.s); got != c.want {
			t.Errorf("%v.Matches(%q) = %v, want %v", c.p, c.s, got, c.want)
		}
	}
}

func TestCoversTable(t *testing.T) {
	cases := []struct {
		a, b Pattern
		want bool
	}{
		// Equality subjects: evaluate directly.
		{pat(schema.OpGlob, "m*t"), pat(schema.OpEQ, "microsoft"), true},
		{pat(schema.OpGlob, "m*t"), pat(schema.OpEQ, "micronet"), true},
		{pat(schema.OpGlob, "m*t"), pat(schema.OpEQ, "network"), false},
		{pat(schema.OpPrefix, "OT"), pat(schema.OpEQ, "OTE"), true},
		{pat(schema.OpEQ, "OTE"), pat(schema.OpEQ, "OTE"), true},
		{pat(schema.OpEQ, "OTE"), pat(schema.OpEQ, "OT"), false},
		// Equality never covers non-equality.
		{pat(schema.OpEQ, "OTE"), pat(schema.OpPrefix, "OTE"), false},
		// Prefix/prefix: shorter covers longer.
		{pat(schema.OpPrefix, "OT"), pat(schema.OpPrefix, "OTE"), true},
		{pat(schema.OpPrefix, "OTE"), pat(schema.OpPrefix, "OT"), false},
		// Suffix/suffix.
		{pat(schema.OpSuffix, "SE"), pat(schema.OpSuffix, "YSE"), true},
		{pat(schema.OpSuffix, "YSE"), pat(schema.OpSuffix, "SE"), false},
		// Contains/contains: substring covers superstring.
		{pat(schema.OpContains, "YS"), pat(schema.OpContains, "NYSE"), true},
		{pat(schema.OpContains, "NYSE"), pat(schema.OpContains, "YS"), false},
		// Contains covers prefix/suffix when embedded.
		{pat(schema.OpContains, "OT"), pat(schema.OpPrefix, "OTE"), true},
		{pat(schema.OpContains, "TE"), pat(schema.OpSuffix, "OTE"), true},
		{pat(schema.OpContains, "XX"), pat(schema.OpPrefix, "OTE"), false},
		// Prefix does not cover contains/suffix.
		{pat(schema.OpPrefix, "OT"), pat(schema.OpContains, "OTE"), false},
		{pat(schema.OpPrefix, "OT"), pat(schema.OpSuffix, "OTE"), false},
		// Glob/glob.
		{pat(schema.OpGlob, "a*c"), pat(schema.OpGlob, "ab*bc"), true},
		{pat(schema.OpGlob, "ab*bc"), pat(schema.OpGlob, "a*c"), false},
		{pat(schema.OpGlob, "a*z"), pat(schema.OpGlob, "ab*yz"), true},
		{pat(schema.OpContains, "xy"), pat(schema.OpGlob, "x*y"), false}, // star may be non-empty
		{pat(schema.OpContains, "xy"), pat(schema.OpGlob, "a*xy*b"), true},
		// Contains "" matches everything.
		{pat(schema.OpContains, ""), pat(schema.OpGlob, "a*b"), true},
		{pat(schema.OpContains, ""), pat(schema.OpPrefix, "q"), true},
		// NE only covers itself.
		{pat(schema.OpNE, "x"), pat(schema.OpNE, "x"), true},
		{pat(schema.OpNE, "x"), pat(schema.OpNE, "y"), false},
		{pat(schema.OpNE, "x"), pat(schema.OpEQ, "y"), false},
		{pat(schema.OpContains, ""), pat(schema.OpNE, "x"), false},
	}
	for i, c := range cases {
		if got := Covers(c.a, c.b); got != c.want {
			t.Errorf("case %d: Covers(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestCoversSoundnessRandomized: whenever Covers(a,b) is true, any string
// matching b must match a. Patterns and subjects are drawn over a tiny
// alphabet to maximize collisions.
func TestCoversSoundnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := []schema.Op{schema.OpEQ, schema.OpPrefix, schema.OpSuffix, schema.OpContains, schema.OpGlob}
	randText := func(stars bool) string {
		n := rng.Intn(5)
		var b strings.Builder
		for i := 0; i < n; i++ {
			alpha := "ab"
			if stars {
				alpha = "ab*"
			}
			b.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return b.String()
	}
	randPattern := func() Pattern {
		op := ops[rng.Intn(len(ops))]
		return New(op, randText(op == schema.OpGlob))
	}
	randSubject := func() string {
		n := rng.Intn(7)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte("ab"[rng.Intn(2)])
		}
		return b.String()
	}
	covered := 0
	for iter := 0; iter < 20000; iter++ {
		a, b := randPattern(), randPattern()
		if !Covers(a, b) {
			continue
		}
		covered++
		for probe := 0; probe < 20; probe++ {
			s := randSubject()
			if b.Matches(s) && !a.Matches(s) {
				t.Fatalf("unsound: Covers(%v, %v) but %q matches b only", a, b, s)
			}
		}
	}
	if covered == 0 {
		t.Fatal("randomized test produced no covering pairs; generator broken")
	}
}

// TestPaperFigure5 reproduces the SACS of Figure 5: constraints `>* OT`
// (S1's symbol = OTE collapses under it) — the figure shows one row
// ">* OT" with ids S1, S2.
func TestPaperFigure5(t *testing.T) {
	s := NewSet()
	// S2 subscribes symbol >* OT first; S1's symbol = OTE is covered.
	s.Insert(pat(schema.OpPrefix, "OT"), 2)
	s.Insert(pat(schema.OpEQ, "OTE"), 1)
	rows := s.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v, want 1 generalized row", rows)
	}
	if rows[0].Pattern != pat(schema.OpPrefix, "OT") {
		t.Fatalf("pattern = %v", rows[0].Pattern)
	}
	if !reflect.DeepEqual(rows[0].IDs, []uint64{1, 2}) {
		t.Fatalf("ids = %v", rows[0].IDs)
	}
	if got := s.Match("OTE"); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Match(OTE) = %v", got)
	}
	// Lossy by design: "OTX" also reports S1 (resolved at the owner).
	if got := s.Match("OTX"); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Match(OTX) = %v", got)
	}
	if got := s.Match("NYSE"); len(got) != 0 {
		t.Fatalf("Match(NYSE) = %v", got)
	}
}

func TestInsertGeneralizationSubstitutes(t *testing.T) {
	s := NewSet()
	s.Insert(pat(schema.OpEQ, "microsoft"), 1)
	s.Insert(pat(schema.OpEQ, "micronet"), 2)
	if len(s.Rows()) != 2 {
		t.Fatalf("rows = %v", s.Rows())
	}
	// "m*t" is more general than both: substitutes and absorbs.
	s.Insert(pat(schema.OpGlob, "m*t"), 3)
	rows := s.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows after generalization = %v", rows)
	}
	if rows[0].Pattern != pat(schema.OpGlob, "m*t") {
		t.Fatalf("pattern = %v", rows[0].Pattern)
	}
	if !reflect.DeepEqual(rows[0].IDs, []uint64{1, 2, 3}) {
		t.Fatalf("ids = %v", rows[0].IDs)
	}
}

// TestInsertJoinsRowsInPlace: ids joining an existing equality row, a
// pattern row covering an equality, or a pattern row covering a pattern
// grow the row's list as append does, so a thousand joins one id at a
// time allocate a few lists per row, not one per join (the pattern join
// may allocate what the coverage test itself does), and every row keeps
// its ids.
func TestInsertJoinsRowsInPlace(t *testing.T) {
	s := NewSet()
	s.Insert(pat(schema.OpEQ, "NYSE"), 0)
	s.Insert(pat(schema.OpPrefix, "OT"), 0)
	covers := testing.AllocsPerRun(100, func() { Covers(pat(schema.OpPrefix, "OT"), pat(schema.OpPrefix, "OTC")) })
	id := uint64(1)
	for _, c := range []struct {
		p     Pattern
		extra float64
	}{{pat(schema.OpEQ, "NYSE"), 0}, {pat(schema.OpEQ, "OTC"), 0}, {pat(schema.OpPrefix, "OTC"), covers}} {
		allocs := testing.AllocsPerRun(1000, func() {
			s.Insert(c.p, id)
			id++
		})
		if allocs > c.extra+0.05 {
			t.Fatalf("joining %v: %.3f allocations per id, want at most %.3f", c.p, allocs, c.extra+0.05)
		}
	}
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		want := 1 + 1001 // id 0 and the warm-up run's
		if r.Pattern.Op == schema.OpPrefix {
			want += 1001
		}
		if len(r.IDs) != want || !slices.IsSorted(r.IDs) {
			t.Fatalf("row %v holds %d ids (sorted: %v), want %d", r.Pattern, len(r.IDs), slices.IsSorted(r.IDs), want)
		}
	}
}

func TestInsertUnrelatedAddsRow(t *testing.T) {
	s := NewSet()
	s.Insert(pat(schema.OpPrefix, "OT"), 1)
	s.Insert(pat(schema.OpSuffix, "SE"), 2)
	if len(s.Rows()) != 2 {
		t.Fatalf("rows = %v", s.Rows())
	}
	if got := s.Match("OTSE"); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Match(OTSE) = %v", got)
	}
	if got := s.Match("NYSE"); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("Match(NYSE) = %v", got)
	}
}

func TestNotEqualEntries(t *testing.T) {
	s := NewSet()
	s.Insert(pat(schema.OpNE, "NYSE"), 1)
	s.Insert(pat(schema.OpNE, "NYSE"), 2)
	s.Insert(pat(schema.OpEQ, "OTE"), 3)
	if got := s.Match("NYSE"); !reflect.DeepEqual(got, []uint64(nil)) && len(got) != 0 {
		t.Fatalf("Match(NYSE) = %v", got)
	}
	if got := s.Match("OTE"); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("Match(OTE) = %v", got)
	}
	if got := s.Match("LSE"); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Match(LSE) = %v", got)
	}
	ne := s.NeRows()
	if len(ne) != 1 || !reflect.DeepEqual(ne[0].IDs, []uint64{1, 2}) {
		t.Fatalf("NeRows = %v", ne)
	}
}

// removeOne deletes id through RemoveAll, the one removal path a Summary
// takes (its tombstone purge).
func removeOne(s *Set, id uint64) { s.RemoveAll(map[uint64]struct{}{id: {}}) }

func TestRemove(t *testing.T) {
	s := NewSet()
	s.Insert(pat(schema.OpPrefix, "OT"), 2)
	s.Insert(pat(schema.OpEQ, "OTE"), 1)
	s.Insert(pat(schema.OpNE, "X"), 3)
	removeOne(s, 1)
	if got := s.Match("OTE"); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Fatalf("Match after remove = %v", got)
	}
	removeOne(s, 2)
	if len(s.Rows()) != 0 {
		t.Fatalf("rows not dropped: %v", s.Rows())
	}
	removeOne(s, 3)
	if len(s.NeRows()) != 0 {
		t.Fatal("ne entry not dropped")
	}
	removeOne(s, 99) // absent: no-op
}

func TestMergeSets(t *testing.T) {
	a := NewSet()
	a.Insert(pat(schema.OpPrefix, "OT"), 1)
	b := NewSet()
	b.Insert(pat(schema.OpEQ, "OTE"), 2)
	b.Insert(pat(schema.OpSuffix, "SE"), 3)
	b.Insert(pat(schema.OpNE, "Q"), 4)
	// Fold b's rows in as a wire merge does.
	for _, r := range append(b.Rows(), b.NeRows()...) {
		a.MergeRowBytes(r.Pattern.Op, []byte(r.Pattern.Text), r.IDs)
	}
	// OTE collapses into prefix OT row.
	if len(a.Rows()) != 2 {
		t.Fatalf("rows = %v", a.Rows())
	}
	if got := a.Match("OTE"); !reflect.DeepEqual(got, []uint64{1, 2, 4}) {
		t.Fatalf("Match(OTE) = %v", got)
	}
	if got := a.Match("NYSE"); !reflect.DeepEqual(got, []uint64{3, 4}) {
		t.Fatalf("Match(NYSE) = %v", got)
	}
}

func TestMatchIntoAndClone(t *testing.T) {
	s := NewSet()
	s.Insert(pat(schema.OpPrefix, "OT"), 1)
	s.Insert(pat(schema.OpContains, "T"), 2)
	dst := make(map[uint64]struct{})
	if added := s.MatchInto("OTE", dst); added != 2 {
		t.Fatalf("MatchInto added %d", added)
	}
	if added := s.MatchInto("OTE", dst); added != 0 {
		t.Fatalf("second MatchInto added %d", added)
	}
	c := s.Clone()
	removeOne(c, 1)
	if got := s.Match("OTE"); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("clone mutated original: %v", got)
	}
}

func TestStatsAndSize(t *testing.T) {
	s := NewSet()
	s.Insert(pat(schema.OpPrefix, "OT"), 1) // covered rows: 1 row "OT"
	s.Insert(pat(schema.OpEQ, "OTE"), 2)    // joins row
	st := s.Stats()
	if st.NumRows != 1 || st.IDEntries != 2 || st.PatternBytes != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	// size = patternBytes(2) + rows(1) + ids(2)*sid(4) = 11
	if got := s.SizeBytes(4); got != 11 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

// TestSACSNoFalseNegativesRandomized: after random inserts, any value
// satisfying an inserted constraint must be reported by Match.
func TestSACSNoFalseNegativesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	ops := []schema.Op{schema.OpEQ, schema.OpNE, schema.OpPrefix, schema.OpSuffix, schema.OpContains, schema.OpGlob}
	words := []string{"", "a", "b", "ab", "ba", "aab", "abb", "abab", "bbaa"}
	randText := func(op schema.Op) string {
		w := words[rng.Intn(len(words))]
		if op == schema.OpGlob && len(w) > 1 && rng.Intn(2) == 0 {
			i := 1 + rng.Intn(len(w)-1)
			w = w[:i] + "*" + w[i:]
		}
		return w
	}
	s := NewSet()
	type ref struct {
		p  Pattern
		id uint64
	}
	var refs []ref
	for step := uint64(1); step <= 800; step++ {
		op := ops[rng.Intn(len(ops))]
		p := New(op, randText(op))
		s.Insert(p, step)
		refs = append(refs, ref{p: p, id: step})
		// Probe.
		for probe := 0; probe < 5; probe++ {
			v := words[rng.Intn(len(words))]
			got := s.Match(v)
			gotSet := make(map[uint64]bool, len(got))
			for _, id := range got {
				gotSet[id] = true
			}
			for _, r := range refs {
				if r.p.Matches(v) && !gotSet[r.id] {
					t.Fatalf("false negative: %v (id %d) matches %q but Match returned %v\nset: %v",
						r.p, r.id, v, got, s)
				}
			}
		}
	}
}

// TestCloneMappedForms: a CloneMapped copy over n ids keeps a list of
// fewer than ⌈n/64⌉ kept ids as an ascending list and stores a longer one
// as the bitset of its ids, and every reader of the copy — AppendLists
// and the row accessors — returns what the original (Match, and the
// MatchInto oracle) returns under the mapping. It runs twice: with the
// process's string hashes, and with every row of the copy given one hash,
// its table rebuilt and every value probed with that hash, so each
// equality and ≠ lookup is decided by the text comparison alone.
func TestCloneMappedForms(t *testing.T) {
	for _, collide := range []bool{false, true} {
		testCloneMappedForms(t, collide)
	}
}

func testCloneMappedForms(t *testing.T, collide bool) {
	rng := rand.New(rand.NewSource(6))
	const n = 200 // four words: lists of one to three kept ids stay lists
	words := []string{"NYSE", "OTE", "LSE", "NASDAQ", "OTTO", "SE", "micronet", "microsoft"}
	ops := []schema.Op{schema.OpEQ, schema.OpEQ, schema.OpNE, schema.OpPrefix, schema.OpSuffix, schema.OpContains}
	s := NewSet()
	for i := 0; i < 300; i++ {
		w, op := words[rng.Intn(len(words))], ops[rng.Intn(len(ops))]
		if op != schema.OpEQ && op != schema.OpNE {
			w = w[:1+rng.Intn(len(w))]
		}
		s.Insert(pat(op, w), uint64(1000+rng.Intn(2*n)))
	}
	// Equality rows the patterns above cannot cover (their letters appear
	// in no word), so the copy's table holds several.
	unfolded := []string{"HKG", "BVX", "ZKW", "HKGX"}
	for i, w := range unfolded {
		s.Insert(pat(schema.OpEQ, w), uint64(1000+4*i))
		s.Insert(pat(schema.OpEQ, w), uint64(1002+4*i))
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
	if len(c.eq) < 2 {
		t.Fatalf("fixture compiled %d equality rows; want several to share a table", len(c.eq))
	}
	hash := schema.HashString
	if collide {
		const h = 0x9E3779B97F4A7C15
		for i := range c.eq {
			c.eq[i].hash = h
		}
		for i := range c.ne {
			c.ne[i].hash = h
		}
		c.fillSlots()
		hash = func(string) uint64 { return h }
	}
	nw := idlist.Words(n)
	lists, bitsets := 0, 0
	for _, v := range append(append(words, unfolded...), "unnamed", "micro", "OT", "HK") {
		var got []uint64
		for _, ids := range c.AppendLists(nil, v, hash(v)) {
			got = idlist.Append(got, ids, nw)
			if len(ids) == nw {
				bitsets++
				continue
			}
			lists++
			if len(ids) >= nw || !slices.IsSorted(ids) || ids[len(ids)-1] >= n {
				t.Fatalf("%q consults list %v: want fewer than %d ascending ids below %d", v, ids, nw, n)
			}
		}
		slices.Sort(got)
		got = slices.Compact(got)
		if want := mapped(s.Match(v)); !slices.Equal(got, want) {
			t.Fatalf("copy's lists for %q hold %v, original's Match mapped %v", v, got, want)
		}
		into := map[uint64]struct{}{}
		s.MatchInto(v, into)
		var oracle []uint64
		for key := range into {
			oracle = append(oracle, key)
		}
		if want := mapped(oracle); !slices.Equal(got, want) {
			t.Fatalf("copy's lists for %q hold %v, original's MatchInto mapped %v", v, got, want)
		}
	}
	if lists == 0 || bitsets == 0 {
		t.Fatalf("fixture consulted %d lists and %d bitsets; want both forms", lists, bitsets)
	}
	for name, rows := range map[string][2][]Row{"pattern and equality": {s.Rows(), c.Rows()}, "≠": {s.NeRows(), c.NeRows()}} {
		var want []Row
		for _, r := range rows[0] {
			if ids := mapped(r.IDs); len(ids) > 0 {
				want = append(want, Row{Pattern: r.Pattern, IDs: ids})
			}
		}
		if len(rows[1])+len(want) > 0 && !reflect.DeepEqual(rows[1], want) {
			t.Fatalf("copy's %s rows %v, original mapped %v", name, rows[1], want)
		}
	}
}

// BenchmarkAppendLists looks up string values in a SACS of 2 000 equality
// rows, 40 prefix rows and 8 ≠ entries over 4 000 ids, a third of the
// values missing every equality row: "set" through the mutable Set's
// string maps, "compiled" through its CloneMapped copy with each value's
// hash taken beforehand, as an event carries it.
func BenchmarkAppendLists(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	const n = 4000
	text := func(i int) string {
		return "SYM" + strings.Repeat("x", i%7) + string(rune('A'+i%26)) + string(rune('a'+i/26%26)) + string(rune('0'+i/676))
	}
	s := NewSet()
	for i := 0; i < 2000; i++ {
		s.Insert(pat(schema.OpEQ, text(i)), uint64(rng.Intn(n)))
	}
	for i := 0; i < 40; i++ {
		s.Insert(pat(schema.OpPrefix, "P"+text(i)), uint64(rng.Intn(n)))
	}
	for i := 0; i < 8; i++ {
		s.Insert(pat(schema.OpNE, text(i)), uint64(rng.Intn(n)))
	}
	values := make([]string, 256)
	hashes := make([]uint64, len(values))
	for i := range values {
		values[i] = text(rng.Intn(3000))
		hashes[i] = schema.HashString(values[i])
	}
	c := s.CloneMapped(n, func(id uint64) (uint64, bool) { return id, true }, slices.Sort[[]uint64])
	var dst [][]uint64
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = s.AppendLists(dst[:0], values[i%len(values)])
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(values)
			dst = c.AppendLists(dst[:0], values[k], hashes[k])
		}
	})
}

package idlist

import (
	"math/rand"
	"slices"
	"testing"
)

// set is the map-based reference the list operations are held to.
func set(lists ...[]uint64) map[uint64]bool {
	m := make(map[uint64]bool)
	for _, ids := range lists {
		for _, id := range ids {
			m[id] = true
		}
	}
	return m
}

// sorted returns the reference's ids as a sorted list.
func sorted(m map[uint64]bool) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkOps holds Add, Union, UnionInto, Join and Without on the sorted lists a
// and b, and on the ids of dead, to the reference.
func checkOps(t *testing.T, a, b []uint64, dead map[uint64]struct{}) {
	t.Helper()
	a0, b0 := slices.Clone(a), slices.Clone(b)
	union := sorted(set(a, b))

	for _, id := range b {
		want := set(a)
		want[id] = true
		if got := Add(slices.Clone(a), id); !slices.Equal(got, sorted(want)) {
			t.Fatalf("Add(%v, %d) = %v", a, id, got)
		}
	}
	if got := Union(a, b); !slices.Equal(got, union) {
		t.Fatalf("Union(%v, %v) = %v, want %v", a, b, got, union)
	}
	if got := UnionInto(slices.Clone(a), b); !slices.Equal(got, union) {
		t.Fatalf("UnionInto(%v, %v) = %v, want %v", a, b, got, union)
	}
	if got := Join(slices.Clone(a), b); !slices.Equal(got, union) {
		t.Fatalf("Join(%v, %v) = %v, want %v", a, b, got, union)
	}
	// With room for the union, UnionInto and Join merge in dst's own array.
	if len(union) > 0 {
		for _, op := range []func(dst, src []uint64) []uint64{UnionInto, Join} {
			dst := append(make([]uint64, 0, len(union)), a...)
			if got := op(dst, b); !slices.Equal(got, union) || &got[0] != &dst[:1][0] {
				t.Fatalf("UnionInto/Join(%v, %v) with room = %v, want %v in place", a, b, got, union)
			}
		}
	}
	if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
		t.Fatalf("inputs written: %v %v, were %v %v", a, b, a0, b0)
	}

	want := set(a)
	for id := range dead {
		delete(want, id)
	}
	if got := Without(slices.Clone(a), dead); !slices.Equal(got, sorted(want)) {
		t.Fatalf("Without(%v, %v) = %v, want %v", a, dead, got, sorted(want))
	}
}

// reversed is a Mapper translation over n ids that no order keeps: id maps
// to n-1-id, and ids from n up are rejected.
func reversed(n int) func(uint64) (uint64, bool) {
	return func(id uint64) (uint64, bool) { return uint64(n) - 1 - id, id < uint64(n) }
}

// checkMapper maps every list through one Mapper over n ids and checks,
// after the last, that each took the form its surviving count picks, that
// List reads it as the translated ids ascending, and that order saw
// exactly the lists of two or more ids that stay lists.
func checkMapper(t *testing.T, n int, lists [][]uint64) {
	t.Helper()
	entries := 0
	for _, ids := range lists {
		entries += len(ids)
	}
	ordered := make(map[*uint64]bool)
	m := NewMapper(n, entries)
	order := func(ids []uint64) {
		ordered[&ids[0]] = true
		slices.Sort(ids)
	}
	words := Words(n)
	outs := make([][]uint64, len(lists))
	for i, ids := range lists {
		outs[i] = m.Map(ids, reversed(n), order)
	}
	calls := 0
	for i, ids := range lists {
		want := make(map[uint64]bool)
		for _, id := range ids {
			if mapped, ok := reversed(n)(id); ok {
				want[mapped] = true
			}
		}
		out, isList := outs[i], len(want) < words
		switch {
		case isList && len(out) != len(want):
			t.Fatalf("n=%d: %d surviving ids give a list of %d", n, len(want), len(out))
		case !isList && len(out) != words:
			t.Fatalf("n=%d: %d surviving ids give %d words, want a %d-word bitset", n, len(want), len(out), words)
		}
		if got := List(out, words); !slices.Equal(got, sorted(want)) {
			t.Fatalf("n=%d: List = %v, want %v", n, got, sorted(want))
		}
		wantOrder := isList && len(want) > 1
		if wantOrder {
			calls++
		}
		if len(out) > 0 && ordered[&out[0]] != wantOrder {
			t.Fatalf("n=%d: order called on %d surviving ids: %v, want %v", n, len(want), ordered[&out[0]], wantOrder)
		}
	}
	if len(ordered) != calls {
		t.Fatalf("n=%d: order called %d times, want %d", n, len(ordered), calls)
	}
}

// randomList returns a sorted list of up to most ids, mostly below 40 so
// that lists overlap, with an occasional id far above them.
func randomList(rng *rand.Rand, most int) []uint64 {
	m := make(map[uint64]bool)
	for i := rng.Intn(most + 1); i > 0; i-- {
		id := uint64(rng.Intn(40))
		if rng.Intn(8) == 0 {
			id += 1 << 40
		}
		m[id] = true
	}
	return sorted(m)
}

func TestOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		a, b := randomList(rng, 20), randomList(rng, 20)
		dead := make(map[uint64]struct{})
		for _, id := range randomList(rng, 10) {
			dead[id] = struct{}{}
		}
		checkOps(t, a, b, dead)
	}
}

func TestUnionIntoSubsetReturnsDst(t *testing.T) {
	dst := []uint64{1, 3, 5, 7, 1 << 40}
	src := []uint64{3, 7, 1 << 40}
	var got []uint64
	allocs := testing.AllocsPerRun(100, func() { got = UnionInto(dst, src) })
	if allocs != 0 {
		t.Errorf("UnionInto with src ⊆ dst: %v allocs, want 0", allocs)
	}
	if len(got) != len(dst) || &got[0] != &dst[0] {
		t.Errorf("UnionInto with src ⊆ dst = %v, want dst itself", got)
	}
}

// TestJoinGrowsAsAppend: a list joined one id at a time is copied a few
// times, as append grows it, where UnionInto sizes it exactly at each join;
// a join that adds nothing leaves the list as it is.
func TestJoinGrowsAsAppend(t *testing.T) {
	var exact, joined []uint64
	copiesExact, copiesJoin := 0, 0
	for id := uint64(0); id < 1000; id++ {
		e, j := UnionInto(exact, []uint64{id}), Join(joined, []uint64{id})
		if cap(e) != cap(exact) {
			copiesExact++
		}
		if cap(j) != cap(joined) {
			copiesJoin++
		}
		exact, joined = e, j
	}
	if !slices.Equal(exact, joined) || copiesExact != 1000 || copiesJoin > 30 {
		t.Fatalf("1000 joins: UnionInto copied %d times, Join %d; lists equal: %v", copiesExact, copiesJoin, slices.Equal(exact, joined))
	}
	full := joined[:len(joined):len(joined)]
	if got := Join(full, []uint64{3, 999}); &got[0] != &full[0] || len(got) != len(full) {
		t.Fatalf("Join of ids already present copied the list")
	}
}

// TestMapperFormBoundary: at n ids a list of Words(n)-1 surviving ids
// stays a list and one of Words(n) becomes a bitset, whichever ids the
// translation rejects on the way.
func TestMapperFormBoundary(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130, 1000} {
		var lists [][]uint64
		for _, survivors := range []int{Words(n) - 1, Words(n)} {
			// The survivors spread over [0, n), and one id past them
			// that the translation rejects.
			ids := []uint64{uint64(n) + 7}
			for i := 0; i < survivors; i++ {
				ids = append(ids, uint64(i*n/survivors))
			}
			slices.Sort(ids)
			lists = append(lists, ids)
		}
		checkMapper(t, n, lists)
	}
}

// FuzzIDList holds the list operations and the Mapper to the properties of
// the unit tests on lists built from fuzz bytes: each byte names a list
// (two low bits) and an id below 64 (the rest), and the first byte sets
// the Mapper's n.
func FuzzIDList(f *testing.F) {
	f.Add([]byte{0, 4, 9, 14, 19})
	f.Add([]byte{64, 0, 1, 2, 3, 4, 5, 6, 7, 255, 254})
	f.Add([]byte{129, 3, 7, 11, 15, 4, 8, 12, 16, 20, 24, 28})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var lists [3]map[uint64]bool // a, b, dead
		for i := range lists {
			lists[i] = make(map[uint64]bool)
		}
		for _, c := range data[1:] {
			id := uint64(c >> 2)
			switch c & 3 {
			case 3: // in both a and b
				lists[0][id], lists[1][id] = true, true
			default:
				lists[c&3][id] = true
			}
		}
		a, b := sorted(lists[0]), sorted(lists[1])
		dead := make(map[uint64]struct{})
		for id := range lists[2] {
			dead[id] = struct{}{}
		}
		checkOps(t, a, b, dead)
		checkMapper(t, 1+int(data[0]), [][]uint64{a, b, sorted(lists[2])})
	})
}

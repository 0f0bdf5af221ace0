package interval

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/subsum/subsum/internal/idlist"
)

// pointModel is the AACS with AACSE as a Go map, the layout the ordered
// blocks replaced: its rows live in a Set no point ever enters, and every
// equality row in the map, folded by a scan of the whole map.
type pointModel struct {
	ranges *Set
	eq     map[float64][]uint64
}

func newPointModel() *pointModel {
	return &pointModel{ranges: NewSet(Lossy), eq: map[float64][]uint64{}}
}

func (m *pointModel) mergePoint(v float64, ids []uint64) {
	if i, ok := m.ranges.findRow(v); ok {
		m.ranges.rows[i].ids = idlist.Union(m.ranges.rows[i].ids, ids)
		return
	}
	m.eq[v] = idlist.Union(m.eq[v], ids)
}

func (m *pointModel) mergeRow(iv Interval, ids []uint64) {
	iv = iv.normalize()
	if iv.Empty() {
		return
	}
	m.ranges.insertRange(iv, ids)
	for v, eqIDs := range m.eq {
		if i, ok := m.ranges.findRow(v); ok && iv.Contains(v) {
			m.ranges.rows[i].ids = idlist.Union(m.ranges.rows[i].ids, eqIDs)
			delete(m.eq, v)
		}
	}
}

func (m *pointModel) removeAll(dead map[uint64]struct{}) {
	m.ranges.RemoveAll(dead)
	for v, ids := range m.eq {
		if ids = idlist.Without(ids, dead); len(ids) == 0 {
			delete(m.eq, v)
		} else {
			m.eq[v] = ids
		}
	}
}

func (m *pointModel) eqRows() []EqView {
	var out []EqView
	for v, ids := range m.eq {
		out = append(out, EqView{Value: v, IDs: ids})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

func (m *pointModel) query(v float64) []uint64 {
	dst := map[uint64]struct{}{}
	if i, ok := m.ranges.findRow(v); ok {
		for _, id := range m.ranges.rows[i].ids {
			dst[id] = struct{}{}
		}
	} else {
		for _, id := range m.eq[v] {
			dst[id] = struct{}{}
		}
	}
	return sortedKeys(dst)
}

func sortedKeys(m map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// checkBlocks asserts the layout of a mutable set's points: blocks
// non-empty, at most blockCap rows, each first value in firsts, values
// strictly ascending throughout.
func checkBlocks(t *testing.T, p *points) {
	t.Helper()
	if len(p.firsts) != len(p.blocks) {
		t.Fatalf("%d blocks, %d first values", len(p.blocks), len(p.firsts))
	}
	var prev float64
	for b, blk := range p.blocks {
		if len(blk) == 0 || len(blk) > blockCap {
			t.Fatalf("block %d holds %d rows", b, len(blk))
		}
		if p.firsts[b] != blk[0].v {
			t.Fatalf("block %d starts at %g, firsts says %g", b, blk[0].v, p.firsts[b])
		}
		for i, e := range blk {
			if (b > 0 || i > 0) && !(e.v > prev) {
				t.Fatalf("block %d: value %g after %g", b, e.v, prev)
			}
			if len(e.ids) == 0 {
				t.Fatalf("block %d: row %g has no ids", b, e.v)
			}
			prev = e.v
		}
	}
}

// TestPointsAgainstMapModel drives interleaved point inserts, range
// inserts, wire-merge rows, removals and compactions through a Set and
// through pointModel, and after every step compares the rows, the
// equality rows (value bits included, so the sign of a zero too) and
// QueryInto, and every 500 steps a compiled copy's AppendLists. Values
// sit on a grid that range bounds share, a quarter of the ranges with a
// bound on a point, open or closed, and include −0 and 0; points arrive
// in ascending, descending and random phases, enough of them that blocks
// split and removals and folds leave blocks empty.
func TestPointsAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	s, m := NewSet(Lossy), newPointModel()
	grid := func() float64 {
		v := float64(rng.Intn(12001)-6000) / 2
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		return v
	}
	nextID := uint64(1)
	var live []uint64
	newIDs := func() []uint64 {
		ids := []uint64{nextID}
		live = append(live, nextID)
		nextID++
		if rng.Intn(4) == 0 && len(live) > 1 {
			ids = idlist.Add(ids, live[rng.Intn(len(live)-1)])
		}
		return ids
	}
	var run []float64 // the current ordered phase's remaining values
	// Steps that added a block by splitting a full one, and range and
	// removal steps that dropped a block.
	maxBlocks, splits, folded, removed := 0, 0, 0, 0
	for step := 0; step < 6000; step++ {
		before := len(s.eq.blocks)
		fullBefore := 0
		for _, blk := range s.eq.blocks {
			if len(blk) == blockCap {
				fullBefore++
			}
		}
		op := rng.Intn(20)
		switch {
		case op < 11: // a point, from an ordered phase or at random
			if len(run) == 0 && rng.Intn(40) == 0 {
				lo := float64(rng.Intn(12000)-6000) / 2
				for i := 0; i < 300; i++ {
					run = append(run, lo+float64(i)/4)
				}
				if rng.Intn(2) == 0 {
					slices.Reverse(run)
				}
			}
			v := grid()
			if len(run) > 0 {
				v, run = run[0], run[1:]
			}
			ids := newIDs()
			if rng.Intn(2) == 0 {
				for _, id := range ids {
					s.Insert(Point(v), id)
				}
			} else {
				s.MergePoint(v, ids)
			}
			m.mergePoint(v, ids)
		case op < 14: // a range, as a subscription or a merged row
			lo := grid()
			if eq := m.eqRows(); len(eq) > 0 && rng.Intn(4) == 0 {
				// A bound on a point, so an open end must leave it out.
				lo = eq[rng.Intn(len(eq))].Value - float64(rng.Intn(2))
			}
			hi := lo + float64(rng.Intn(4))/2
			iv := Range(lo, hi, rng.Intn(2) == 0, rng.Intn(2) == 0)
			if rng.Intn(100) == 0 {
				iv = Range(lo, hi, rng.Intn(2) == 0, true)
				iv.Hi = math.Inf(1)
			}
			ids := newIDs()
			if _, isPoint := iv.IsPoint(); isPoint || rng.Intn(2) == 0 {
				s.MergeRow(iv, ids)
			} else {
				for _, id := range ids {
					s.Insert(iv, id)
				}
			}
			m.mergeRow(iv, ids)
		case op < 19 && rng.Intn(4) == 0: // remove a batch of ids
			dead := map[uint64]struct{}{}
			for i := rng.Intn(16); i > 0 && len(live) > 0; i-- {
				j := rng.Intn(len(live))
				dead[live[j]] = struct{}{}
				live = append(live[:j], live[j+1:]...)
			}
			s.RemoveAll(dead)
			m.removeAll(dead)
		case op == 19:
			s.Compact()
			m.ranges.Compact()
		}

		checkBlocks(t, &s.eq)
		if got, want := s.Rows(), m.ranges.Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: rows %v, model %v", step, got, want)
		}
		got, want := s.EqRows(), m.eqRows()
		if len(got) != len(want) {
			t.Fatalf("step %d: %d equality rows, model %d", step, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) || !slices.Equal(got[i].IDs, want[i].IDs) {
				t.Fatalf("step %d: equality row %d is %g→%v, model %g→%v",
					step, i, got[i].Value, got[i].IDs, want[i].Value, want[i].IDs)
			}
		}
		for probe := 0; probe < 6; probe++ {
			v := grid() + float64(rng.Intn(2))/4
			into := map[uint64]struct{}{}
			s.QueryInto(v, into)
			if got, want := sortedKeys(into), m.query(v); !slices.Equal(got, want) {
				t.Fatalf("step %d: QueryInto(%g) = %v, model %v", step, v, got, want)
			}
		}
		if step%500 == 0 {
			checkCompiled(t, step, s, m, int(nextID))
		}

		maxBlocks = max(maxBlocks, len(s.eq.blocks))
		full := 0
		for _, blk := range s.eq.blocks {
			if len(blk) == blockCap {
				full++
			}
		}
		if len(s.eq.blocks) > before && full < fullBefore {
			splits++
		}
		if len(s.eq.blocks) < before && op >= 11 && op < 14 {
			folded++
		}
		if len(s.eq.blocks) < before && op >= 14 && op < 19 {
			removed++
		}
	}
	t.Logf("up to %d blocks; %d splits; blocks dropped by %d range and %d removal steps", maxBlocks, splits, folded, removed)
	if maxBlocks < 4 || splits == 0 || folded == 0 || removed == 0 {
		t.Fatalf("fixture is vacuous: up to %d blocks; %d splits; blocks dropped by %d range and %d removal steps", maxBlocks, splits, folded, removed)
	}
}

// checkCompiled compares a compiled copy of s over n ids with the model:
// its AppendLists, which binary-searches the copy's one block of equality
// rows, at every equality value of s and beside each.
func checkCompiled(t *testing.T, step int, s *Set, m *pointModel, n int) {
	t.Helper()
	c := s.CloneMapped(n, func(id uint64) (uint64, bool) { return id, true }, slices.Sort[[]uint64])
	for _, e := range s.EqRows() {
		for _, v := range []float64{e.Value, e.Value - 0.25, e.Value + 0.25} {
			var got []uint64
			for _, ids := range c.AppendLists(nil, v) {
				got = idlist.Append(got, ids, c.words)
			}
			slices.Sort(got)
			if want := m.query(v); !slices.Equal(slices.Compact(got), want) {
				t.Fatalf("step %d: compiled AppendLists(%g) = %v, model %v", step, v, got, want)
			}
		}
	}
}

// TestPointBlocksFollowArrivalOrder: values arriving in ascending or in
// descending order fill every block but the one still filling, and the
// set holds −0 and 0 as one row that keeps the sign last written.
func TestPointBlocksFollowArrivalOrder(t *testing.T) {
	for _, desc := range []bool{false, true} {
		s := NewSet(Lossy)
		const n = 10*blockCap + 3
		for i := 0; i < n; i++ {
			v := float64(i)
			if desc {
				v = -v
			}
			s.Insert(Point(v), uint64(i))
		}
		checkBlocks(t, &s.eq)
		blocks := s.eq.blocks
		if desc {
			blocks = blocks[1:]
		} else {
			blocks = blocks[:len(blocks)-1]
		}
		for b, blk := range blocks {
			if len(blk) != blockCap {
				t.Fatalf("descending %v: block %d holds %d rows, want %d", desc, b, len(blk), blockCap)
			}
		}
	}
	s := NewSet(Lossy)
	s.Insert(Point(0), 1)
	s.MergePoint(math.Copysign(0, -1), []uint64{2})
	rows := s.EqRows()
	if len(rows) != 1 || !math.Signbit(rows[0].Value) || !slices.Equal(rows[0].IDs, []uint64{1, 2}) {
		t.Fatalf("±0 rows = %v", rows)
	}
	c := s.CloneMapped(3, func(id uint64) (uint64, bool) { return id, true }, slices.Sort[[]uint64])
	for _, v := range []float64{0, math.Copysign(0, -1)} {
		if lists := c.AppendLists(nil, v); len(lists) != 1 || !slices.Equal(idlist.Append(nil, lists[0], c.words), []uint64{1, 2}) {
			t.Fatalf("copy's AppendLists(%g) = %v", v, lists)
		}
	}
}

// TestPointInsertCases inserts into a full block at each place a row can
// arrive: inside it (a split), past its end with a successor that has room
// (the successor's front), past its end with a full successor and before
// the first block's start (a block of its own each).
func TestPointInsertCases(t *testing.T) {
	s := NewSet(Lossy)
	for i := 0; i < 2*blockCap+10; i++ { // two full blocks and a partial one
		s.Insert(Point(float64(2*i)), uint64(i))
	}
	checkBlocks(t, &s.eq)
	for _, c := range []struct {
		v      float64
		blocks int     // blocks after the insert
		first  float64 // first value of the block holding v
	}{
		{4*blockCap - 1, 3, 4*blockCap - 1}, // past block 1, block 2 has room
		{2*blockCap - 1, 4, 2*blockCap - 1}, // past block 0, block 1 full
		{blockCap + 1, 5, blockCap},         // inside block 0 past its middle: split, upper half
		{1, 5, 0},                           // inside the lower half, not full
		{3*blockCap - 1, 6, 2 * blockCap},   // at the middle of the full block 3: split, lower half's end
		{-1, 6, -1},                         // before block 0, not full
	} {
		s.Insert(Point(c.v), 1000)
		checkBlocks(t, &s.eq)
		b, i := s.eq.search(c.v)
		if len(s.eq.blocks) != c.blocks || s.eq.blocks[b][i].v != c.v || s.eq.firsts[b] != c.first {
			t.Fatalf("insert %g: %d blocks, block %d starts at %g, want %d blocks and %g", c.v, len(s.eq.blocks), b, s.eq.firsts[b], c.blocks, c.first)
		}
	}
}

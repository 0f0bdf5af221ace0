package interval

import (
	"slices"

	"github.com/subsum/subsum/internal/idlist"
)

// point is one AACSE row: a value no sub-range contains and the ids of the
// subscriptions whose constraint equals it.
type point struct {
	v   float64
	ids []uint64 // sorted, deduplicated
}

// blockCap bounds a block of a mutable set's points, so an insert out of
// value order shifts at most this many rows.
const blockCap = 128

// points is AACSE kept in value order, as the paper's array: blocks, each
// ascending and non-empty, every value of a block below every value of the
// next. A mutable set's blocks hold at most blockCap rows and grow by
// append as rows arrive; a compiled copy (Set.CloneMapped) holds all its
// rows in one block of any length, which it never mutates. Values compare
// with ==, so −0 and 0 are one row, as they were one key of a Go map; the
// row keeps the sign of the value last written to it, as a map key does.
type points struct {
	blocks [][]point
	firsts []float64 // firsts[b] is blocks[b][0].v: the block search reads no block
}

// len returns the number of rows.
func (p *points) len() int {
	n := 0
	for _, b := range p.blocks {
		n += len(b)
	}
	return n
}

// search returns where v sits: the block whose range holds it (the last
// block whose first value is at most v, else the first block), and the
// index in that block of the first row not below v.
func (p *points) search(v float64) (b, i int) {
	lo, hi := 0, len(p.blocks) // the first block whose first value is above v
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); p.firsts[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0, 0
	}
	blk := p.blocks[lo-1]
	i, hi = 0, len(blk) // the first row not below v
	for i < hi {
		if mid := int(uint(i+hi) >> 1); blk[mid].v < v {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, i
}

// find returns the ids of the row of v, or nil.
func (p *points) find(v float64) []uint64 {
	b, i := p.search(v)
	if b < len(p.blocks) && i < len(p.blocks[b]) && p.blocks[b][i].v == v {
		return p.blocks[b][i].ids
	}
	return nil
}

// get returns the row of v, inserting a row without ids when there is
// none; the caller gives it ids. The row's value becomes v. The pointer
// is valid until the next insert.
func (p *points) get(v float64) *point {
	b, i := p.search(v)
	if b == len(p.blocks) {
		p.insertBlock(0, []point{{v: v}})
		return &p.blocks[0][0]
	}
	blk := p.blocks[b]
	if i < len(blk) && blk[i].v == v {
		blk[i].v = v
		return &blk[i]
	}
	if len(blk) == blockCap {
		switch {
		case i == len(blk) && (b+1 == len(p.blocks) || len(p.blocks[b+1]) == blockCap):
			// Past a full block's end, whose successor is full or absent:
			// a block of its own, so values arriving in ascending order
			// fill every block.
			p.insertBlock(b+1, []point{{v: v}})
			return &p.blocks[b+1][0]
		case i == len(blk):
			b, i = b+1, 0 // the front of a successor with room
		case i == 0:
			// Before a full block's start (b is 0): likewise, for
			// descending order.
			p.insertBlock(b, []point{{v: v}})
			return &p.blocks[b][0]
		default:
			// Split the block in halves; the upper half moves to a new
			// block sized to what it holds.
			upper := append([]point(nil), blk[blockCap/2:]...)
			clear(blk[blockCap/2:])
			p.blocks[b] = blk[:blockCap/2]
			p.insertBlock(b+1, upper)
			if i > blockCap/2 {
				b, i = b+1, i-blockCap/2
			}
		}
	}
	p.blocks[b] = slices.Insert(p.blocks[b], i, point{v: v})
	p.firsts[b] = p.blocks[b][0].v
	return &p.blocks[b][i]
}

// insertBlock inserts blk, non-empty, as block b.
func (p *points) insertBlock(b int, blk []point) {
	p.blocks = slices.Insert(p.blocks, b, blk)
	p.firsts = slices.Insert(p.firsts, b, blk[0].v)
}

// fold removes every row whose value x contains and hands each to take,
// in value order; a row take returns false for stays. The run of rows is
// found by one search, so a range that contains no row costs O(log n).
func (p *points) fold(x Interval, take func(point) bool) {
	emptied := false
	b, i := p.search(x.Lo)
	for ; b < len(p.blocks); b, i = b+1, 0 {
		blk := p.blocks[b]
		if i < len(blk) && blk[i].v == x.Lo && x.LoOpen {
			i++
		}
		kept, j := i, i
		for ; j < len(blk) && x.Contains(blk[j].v); j++ {
			if !take(blk[j]) {
				blk[kept] = blk[j]
				kept++
			}
		}
		if kept < j {
			n := copy(blk[kept:], blk[j:])
			clear(blk[kept+n:])
			p.blocks[b] = blk[:kept+n]
			if kept+n == 0 {
				emptied = true
			} else {
				p.firsts[b] = blk[0].v
			}
		}
		if j < len(blk) {
			break
		}
	}
	if emptied {
		p.dropEmpty()
	}
}

// removeAll deletes every id in dead from every row, dropping rows left
// without ids, and joins a block to its predecessor when both fit in one.
func (p *points) removeAll(dead map[uint64]struct{}) {
	for b, blk := range p.blocks {
		kept := blk[:0]
		for _, e := range blk {
			if e.ids = idlist.Without(e.ids, dead); len(e.ids) > 0 {
				kept = append(kept, e)
			}
		}
		clear(blk[len(kept):])
		p.blocks[b] = kept
	}
	p.dropEmpty()
	joined := p.blocks[:0]
	for _, blk := range p.blocks {
		if n := len(joined); n > 0 && len(joined[n-1])+len(blk) <= blockCap {
			joined[n-1] = append(joined[n-1], blk...)
			continue
		}
		joined = append(joined, blk)
	}
	clear(p.blocks[len(joined):])
	p.blocks = joined
	p.firsts = p.firsts[:len(joined)]
	for b, blk := range joined {
		p.firsts[b] = blk[0].v
	}
}

// dropEmpty removes the blocks left without rows.
func (p *points) dropEmpty() {
	kept := 0
	for _, blk := range p.blocks {
		if len(blk) > 0 {
			p.blocks[kept], p.firsts[kept] = blk, blk[0].v
			kept++
		}
	}
	clear(p.blocks[kept:])
	p.blocks, p.firsts = p.blocks[:kept], p.firsts[:kept]
}

// clone returns a deep copy of p.
func (p *points) clone() points {
	out := points{blocks: make([][]point, len(p.blocks)), firsts: slices.Clone(p.firsts)}
	for b, blk := range p.blocks {
		out.blocks[b] = make([]point, len(blk))
		for i, e := range blk {
			out.blocks[b][i] = point{v: e.v, ids: slices.Clone(e.ids)}
		}
	}
	return out
}

// compile returns the rows of p as one block, in value order, each id
// list passed through f, dropping the rows whose list f empties.
func (p *points) compile(f func([]uint64) []uint64) points {
	flat := make([]point, 0, p.len())
	p.all(func(e *point) {
		if ids := f(e.ids); len(ids) > 0 {
			flat = append(flat, point{v: e.v, ids: ids})
		}
	})
	if len(flat) == 0 {
		return points{}
	}
	return points{blocks: [][]point{flat}, firsts: []float64{flat[0].v}}
}

// all calls f on every row in value order.
func (p *points) all(f func(*point)) {
	for _, blk := range p.blocks {
		for i := range blk {
			f(&blk[i])
		}
	}
}

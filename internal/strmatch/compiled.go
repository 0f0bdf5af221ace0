package strmatch

import (
	"math/bits"
	"sort"

	"github.com/subsum/subsum/internal/idlist"
	"github.com/subsum/subsum/internal/schema"
)

// Compiled is the SACS of a compiled match view, built by Set.CloneMapped
// and only read afterwards: the rows of the set it was cloned from, with
// their ids translated, laid out for the lookup an event's value makes at
// every broker it visits. Equality rows sit in an open-addressed table
// keyed by schema.HashString of their text, which events carry per string
// field (schema.Field.StrHash), so a lookup hashes nothing; a hit is
// confirmed on the text. The ≠ entries are a slice. Pattern rows keep the
// operator-class index a Set builds.
type Compiled struct {
	pats  []Row
	ix    *opIndex
	eq    []hashedRow // equality rows, found through slots
	slots []int32     // eq index + 1 of a row hashed here; 0 is empty
	shift uint        // a hash's slot is its top bits: h >> shift
	ne    []hashedRow // ≠ entries
	words int         // idlist.Words(n) over the n ids of the copy
}

// hashedRow is an equality row or a ≠ entry of a Compiled set.
type hashedRow struct {
	hash uint64 // schema.HashString(text)
	text string
	ids  []uint64
}

// CloneMapped returns the compiled copy of the set with every id
// translated by f over n ids, through an idlist.Mapper (whose Map gives
// what f and order must do); ids f rejects are dropped, and so are rows
// left without ids. The receiver is only read. The copy's lists take the
// forms idlist gives them: AppendLists hands out a bitset as it is, while
// the row accessors hand it out as its ids, ascending.
func (s *Set) CloneMapped(n int, f func(uint64) (uint64, bool), order func([]uint64)) *Compiled {
	m := idlist.NewMapper(n, s.Stats().IDEntries)
	c := &Compiled{
		pats:  make([]Row, 0, len(s.pats)),
		eq:    make([]hashedRow, 0, len(s.eq)),
		ne:    make([]hashedRow, 0, len(s.ne)),
		words: idlist.Words(n),
	}
	for _, r := range s.pats {
		if ids := m.Map(r.IDs, f, order); len(ids) > 0 {
			c.pats = append(c.pats, Row{Pattern: r.Pattern, IDs: ids})
		}
	}
	c.ix = buildIndex(c.pats)
	for text, ids := range s.ne {
		if ids = m.Map(ids, f, order); len(ids) > 0 {
			c.ne = append(c.ne, hashedRow{schema.HashString(text), text, ids})
		}
	}
	for text, ids := range s.eq {
		if ids = m.Map(ids, f, order); len(ids) > 0 {
			c.eq = append(c.eq, hashedRow{schema.HashString(text), text, ids})
		}
	}
	c.fillSlots()
	return c
}

// fillSlots builds the table of the equality rows by their hashes: a
// power-of-two table at most two-thirds full, probed linearly; it always
// keeps an empty slot, which ends every probe.
func (c *Compiled) fillSlots() {
	size := bits.Len(uint(len(c.eq) + len(c.eq)/2))
	c.slots, c.shift = make([]int32, 1<<size), uint(64-size)
	for r, row := range c.eq {
		i := row.hash >> c.shift
		for c.slots[i] != 0 {
			i = (i + 1) & uint64(len(c.slots)-1)
		}
		c.slots[i] = int32(r + 1)
	}
}

// AppendLists is Set.AppendLists on the compiled copy, for a value v whose
// schema.HashString is h: it appends to dst the id lists a query for v
// consults — the equality row of v, every pattern row matching v, every ≠
// entry of another text. The lists are the copy's own and must not be
// written; some are bitsets. One id may sit in two of them. Beyond growing
// dst it does not allocate.
func (c *Compiled) AppendLists(dst [][]uint64, v string, h uint64) [][]uint64 {
	for i := h >> c.shift; ; i = (i + 1) & uint64(len(c.slots)-1) {
		r := c.slots[i]
		if r == 0 {
			break
		}
		if row := &c.eq[r-1]; row.hash == h && row.text == v {
			dst = append(dst, row.ids)
			break
		}
	}
	dst = c.ix.appendLists(dst, c.pats, v)
	for i := range c.ne {
		if row := &c.ne[i]; row.hash != h || row.text != v {
			dst = append(dst, row.ids)
		}
	}
	return dst
}

// Rows returns all rows as Set.Rows does: pattern rows in order, then
// equality rows sorted by text, every bitset expanded into a new list.
func (c *Compiled) Rows() []Row {
	out := make([]Row, 0, len(c.pats)+len(c.eq))
	for _, r := range c.pats {
		out = append(out, Row{Pattern: r.Pattern, IDs: idlist.List(r.IDs, c.words)})
	}
	return append(out, c.sortedRows(c.eq, schema.OpEQ)...)
}

// NeRows returns the ≠ entries sorted by text, as Set.NeRows does.
func (c *Compiled) NeRows() []Row { return c.sortedRows(c.ne, schema.OpNE) }

// sortedRows returns rows as Rows of operator op, sorted by text.
func (c *Compiled) sortedRows(rows []hashedRow, op schema.Op) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = Row{Pattern: Pattern{Op: op, Text: r.text}, IDs: idlist.List(r.ids, c.words)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pattern.Text < out[j].Pattern.Text })
	return out
}

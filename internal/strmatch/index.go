package strmatch

import (
	"sort"

	"github.com/subsum/subsum/internal/schema"
)

// opIndex is a derived, immutable index over a Set's pattern rows, built
// lazily on first lookup and discarded whenever the row slice changes. It
// groups rows by operator class so a lookup touches only the rows that
// could match a value: prefix rows are probed by binary search over their
// sorted texts (one probe per distinct pattern length), suffix rows
// likewise over their byte-reversed texts, and only contains/glob rows
// remain on the linear scan path. Equality and ≠ rows live beside it, in
// the Set's maps or a Compiled set's table and slice.
type opIndex struct {
	prefixTexts []string // prefix pattern texts, sorted
	prefixRows  []int    // pats index per sorted text
	prefixLens  []int    // distinct prefix text lengths, ascending
	suffixTexts []string // suffix pattern texts byte-reversed, sorted
	suffixRows  []int
	suffixLens  []int
	scan        []int // contains/glob rows: no sublinear structure exists
}

func buildIndex(pats []Row) *opIndex {
	ix := &opIndex{}
	for i, r := range pats {
		switch r.Pattern.Op {
		case schema.OpPrefix:
			ix.prefixTexts = append(ix.prefixTexts, r.Pattern.Text)
			ix.prefixRows = append(ix.prefixRows, i)
		case schema.OpSuffix:
			ix.suffixTexts = append(ix.suffixTexts, reverse(r.Pattern.Text))
			ix.suffixRows = append(ix.suffixRows, i)
		default:
			ix.scan = append(ix.scan, i)
		}
	}
	ix.prefixLens = sortTexts(ix.prefixTexts, ix.prefixRows)
	ix.suffixLens = sortTexts(ix.suffixTexts, ix.suffixRows)
	return ix
}

// appendLists appends to dst the id lists of the pattern rows pats (the
// rows ix indexes) that match v.
func (ix *opIndex) appendLists(dst [][]uint64, pats []Row, v string) [][]uint64 {
	for _, l := range ix.prefixLens {
		if l > len(v) {
			break
		}
		lo, hi := ix.prefixMatchRange(v[:l])
		for ; lo < hi; lo++ {
			dst = append(dst, pats[ix.prefixRows[lo]].IDs)
		}
	}
	for _, l := range ix.suffixLens {
		if l > len(v) {
			break
		}
		lo, hi := ix.suffixMatchRange(v, l)
		for ; lo < hi; lo++ {
			dst = append(dst, pats[ix.suffixRows[lo]].IDs)
		}
	}
	for _, i := range ix.scan {
		if pats[i].Pattern.Matches(v) {
			dst = append(dst, pats[i].IDs)
		}
	}
	return dst
}

// prefixMatchRange returns the half-open range of sorted prefix texts equal
// to key. InsertMany's covering fold keeps pattern rows an antichain, so
// the range has at most one element for well-formed sets; decoded sets may
// carry duplicates, which the range form still handles.
func (ix *opIndex) prefixMatchRange(key string) (int, int) {
	lo := sort.SearchStrings(ix.prefixTexts, key)
	hi := lo
	for hi < len(ix.prefixTexts) && ix.prefixTexts[hi] == key {
		hi++
	}
	return lo, hi
}

// suffixMatchRange returns the half-open range of sorted reversed suffix
// texts equal to the reversal of v's last l bytes, comparing in place so
// the lookup allocates nothing.
func (ix *opIndex) suffixMatchRange(v string, l int) (int, int) {
	lo, hi := 0, len(ix.suffixTexts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpRevSuffix(ix.suffixTexts[mid], v, l) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	for end < len(ix.suffixTexts) && cmpRevSuffix(ix.suffixTexts[end], v, l) == 0 {
		end++
	}
	return lo, end
}

// cmpRevSuffix compares a stored (byte-reversed) suffix text t against the
// reversal of v's last l bytes without materializing either string.
func cmpRevSuffix(t, v string, l int) int {
	n := len(t)
	if l < n {
		n = l
	}
	for i := 0; i < n; i++ {
		c := v[len(v)-1-i]
		switch {
		case t[i] < c:
			return -1
		case t[i] > c:
			return 1
		}
	}
	switch {
	case len(t) == l:
		return 0
	case len(t) < l:
		return -1
	default:
		return 1
	}
}

// sortTexts co-sorts texts and their row indices by text and returns the
// distinct text lengths in ascending order.
func sortTexts(texts []string, rows []int) []int {
	sort.Sort(&textSort{texts: texts, rows: rows})
	var lens []int
	for i, t := range texts {
		if i == 0 || len(t) != len(texts[i-1]) {
			lens = append(lens, len(t))
		}
	}
	sort.Ints(lens)
	return dedupInts(lens)
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

type textSort struct {
	texts []string
	rows  []int
}

func (s *textSort) Len() int           { return len(s.texts) }
func (s *textSort) Less(i, j int) bool { return s.texts[i] < s.texts[j] }
func (s *textSort) Swap(i, j int) {
	s.texts[i], s.texts[j] = s.texts[j], s.texts[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// reverse returns s with its bytes in reverse order.
func reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

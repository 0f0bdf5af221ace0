package summary

import (
	"cmp"
	"math/bits"
	"slices"

	"github.com/subsum/subsum/internal/idlist"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// Matcher is Algorithm 1 (PAPER.md §3.2), run against a compiled View with
// zero steady-state allocations, 64 dense ids at a time. The paper counts,
// per id, the event attributes whose satisfied rows list it, and reports
// the ids whose count reaches their c3 attribute count. Here step 1 takes,
// per event attribute, the set of ids its value satisfies (the rows
// interval.Set.AppendLists and strmatch.Compiled.AppendLists consult, read
// where they lie; a string value's equality row is found by the hash its
// event carries, schema.Field.StrHash) and folds it, 64 ids a word, into one set: the ids an
// attribute their mask names (attrView.cons) misses. Step 2 is one pass
// per word: the admitted ids that set does not hold match.
//
// That is the paper's counter test, exactly. Only admitted ids are
// examined: those whose c3 mask is non-empty and lies within the event's
// attributes. Every attribute of an admitted id's mask is then an event
// attribute the fold visits, and a View lists an id only under attributes
// its mask names, so "no attribute misses it" is "every attribute of its
// mask lists it": each of those attributes counts it once (a union has no
// repeats, however many rows list it), and the count reaches the target.
// An id whose mask is empty is listed nowhere and never matches; no
// attribute could miss it either, so admission leaves it out by name (its
// group is the view's first, see View.empty).
//
// Any other id misses an attribute it constrains, so it could never match.
// When the event carries every attribute of the view's union, every id
// with a mask is admitted and both steps cover every word. Otherwise the
// eligible groups are every such group less those whose mask names an
// attribute the event lacks (attrView.groups, a word per 64 groups); their
// runs are coalesced, list rows are cut to them, and both steps cover only
// their words, masked to the runs.
//
// A set a value satisfies through one bitset row is that row; the others
// are merged in scratch. The scratch is all zero between events: each
// step zeroes again the words it wrote. A bit left set would
// satisfy a later event's attribute for an id its value does not satisfy.
//
// The match computes no operation counts. MatchKeysWithCost adds a
// counting pass of its own (count) over the same satisfied sets.
//
// A matcher is bound to the view it was made from, and answers as the
// summary stood when that view was compiled, whatever the summary does
// afterwards. It must not be used concurrently with itself, but any number
// of matchers may match concurrently against one view.
type Matcher struct {
	v *View

	// scratch holds five sets of the view's words words each and one of a
	// word per 64 groups, all zero between events: the empty set (never
	// written), the admitted ids, the ids some attribute satisfies (written
	// by the counting pass alone), the ids some attribute misses, the set
	// one attribute's rows are merged into, and the eligible groups.
	scratch []uint64
	words   []span     // the words the fold and the pass cover, ascending and disjoint
	hit     []int32    // dense ids that matched
	lists   [][]uint64 // the rows one attribute consults
	parts   [][]uint64 // the list rows cut to the eligible runs
	attrs   subid.Mask // the event's attributes
	runs    []span     // eligible index runs, ascending and coalesced
	out     []uint64   // matched keys of the last call
	owners  subid.Mask // inKeyOrder: the owners the hits name
	next    []int32    // inKeyOrder, indexed by owner: its next slot in out

	batch []uint64   // MatchBatch: every event's keys back to back
	res   [][]uint64 // MatchBatch: per-event windows into batch
}

// NewMatcher returns a Matcher bound to a view of the summary's current
// contents: sm.Compile().NewMatcher().
func (sm *Summary) NewMatcher() *Matcher { return sm.Compile().NewMatcher() }

// NewMatcher returns a Matcher bound to v.
func (v *View) NewMatcher() *Matcher {
	return &Matcher{v: v, scratch: make([]uint64, 5*v.words+idlist.Words(len(v.groups)))}
}

// Match returns the ids of the subscriptions the summary says match e, in
// ascending key order, each with its c3 mask. The returned ids are freshly
// allocated and owned by the caller.
func (m *Matcher) Match(e *schema.Event) []subid.ID {
	m.collect(e)
	out := make([]subid.ID, len(m.hit))
	for i, idx := range m.hit {
		out[i] = m.v.idAt(idx)
	}
	slices.SortFunc(out, func(a, b subid.ID) int { return cmp.Compare(a.Key(), b.Key()) })
	return out
}

// MatchBatch matches a run of events in order: res[i] is events[i]'s
// matched keys, ascending. The slices are scratch owned by the matcher,
// valid until the next call.
func (m *Matcher) MatchBatch(events []*schema.Event) [][]uint64 {
	m.batch, m.res = m.batch[:0], m.res[:0]
	for _, e := range events {
		keys := m.MatchKeys(e)
		start := len(m.batch)
		m.batch = append(m.batch, keys...)
		// A later append may move batch; this window keeps the old array.
		m.res = append(m.res, m.batch[start:len(m.batch):len(m.batch)])
	}
	return m.res
}

// MatchKeys returns the matched id keys in ascending order. The slice is
// scratch owned by the matcher, valid until the next call.
func (m *Matcher) MatchKeys(e *schema.Event) []uint64 {
	m.collect(e)
	m.inKeyOrder()
	return m.out
}

// MatchKeysWithCost is MatchKeys with the Section 5.2.4 operation counts,
// found by a counting pass before the match.
func (m *Matcher) MatchKeysWithCost(e *schema.Event) ([]uint64, MatchCost) {
	restricted := m.begin(e)
	cost := m.count(e, restricted)
	m.fold(e, restricted)
	cost.Matched = len(m.hit)
	m.inKeyOrder()
	return m.out, cost
}

// inKeyOrder leaves the keys of the hits in m.out, ascending, with no
// comparison sort over them all. The hits are dealt into one bucket per
// owner (a key's high half), in ascending owner order, stably: a bucket
// then holds its owner's keys in index order, which ascends within each
// mask group. An insertion pass finishes the order; it moves a key only
// past keys of its own owner's other groups, never across a bucket.
func (m *Matcher) inKeyOrder() {
	keys := m.v.keys
	out := slices.Grow(m.out[:0], len(m.hit))[:len(m.hit)]
	m.out = out
	if m.countOwners() {
		at := int32(0) // each owner's count becomes its first slot
		for w, word := range m.owners {
			for ; word != 0; word &= word - 1 {
				o := w<<6 + bits.TrailingZeros64(word)
				at, m.next[o] = at+m.next[o], at
			}
			m.owners[w] = 0
		}
		for _, idx := range m.hit {
			key := keys[idx]
			out[m.next[key>>32]] = key
			m.next[key>>32]++
		}
	} else {
		for i, idx := range m.hit {
			out[i] = keys[idx]
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// countOwners counts each owner's hits in next and notes the owners in
// owners, reporting false — with owners left empty — where there is
// nothing to bucket: fewer than two hits, or an owner past the view's key
// count plus 64. next is indexed by owner and grows on demand, so that
// bound keeps a sparse owner space, or a corrupt peer's id, from sizing
// it beyond the view; the insertion pass alone orders those hits.
func (m *Matcher) countOwners() bool {
	if len(m.hit) < 2 {
		return false
	}
	limit := len(m.v.keys) + 64
	for _, idx := range m.hit {
		o := int(m.v.keys[idx] >> 32)
		if o >= limit {
			clear(m.owners)
			return false
		}
		if o >= len(m.next) {
			m.next = append(m.next, make([]int32, o+1-len(m.next))...)
		}
		if !m.owners.Has(o) {
			m.owners.Set(o)
			m.next[o] = 0
		}
		m.next[o]++
	}
	return true
}

// collect runs Algorithm 1 on e and leaves the dense ids that matched in
// m.hit, in index order: not key order.
func (m *Matcher) collect(e *schema.Event) { m.fold(e, m.begin(e)) }

// begin admits e and sets the admitted ids in keep over the words it
// leaves in m.words. It reports whether the match is restricted to the
// eligible runs.
func (m *Matcher) begin(e *schema.Event) bool {
	restricted := m.admit(e)
	m.cover(restricted)
	return restricted
}

// fold is Algorithm 1 on an admitted event: step 1 folds, per attribute
// an id can be listed under, the ids its mask names and its value does not
// satisfy; step 2 leaves in m.hit the admitted ids none of them holds, and
// zeroes again keep and miss where they were written.
func (m *Matcher) fold(e *schema.Event, restricted bool) {
	words := m.v.words
	keep, miss := m.scratch[words:2*words], m.scratch[3*words:4*words]
	for _, f := range e.Fields() {
		a := m.v.attr(f.Attr)
		if a == nil {
			continue // no mask names it, so no row of it lists an id
		}
		sat, built := m.satisfied(f, a, restricted)
		for _, sp := range m.words {
			ms := miss[sp.lo:sp.hi]
			cons, s := a.cons[sp.lo:sp.hi], sat[sp.lo:sp.hi]
			cons, s = cons[:len(ms)], s[:len(ms)]
			for w := range ms {
				ms[w] |= cons[w] &^ s[w]
			}
			if built {
				clear(s)
			}
		}
	}
	hit := m.hit[:0]
	for _, sp := range m.words {
		for w := sp.lo; w < sp.hi; w++ {
			for h := keep[w] &^ miss[w]; h != 0; h &= h - 1 {
				hit = append(hit, int32(w<<6)+int32(bits.TrailingZeros64(h)))
			}
		}
		clear(keep[sp.lo:sp.hi])
		clear(miss[sp.lo:sp.hi])
	}
	m.hit = hit
}

// count returns the Section 5.2.4 counts of Algorithm 1 on an admitted
// event, as the paper's counters would find them, but for Matched, which
// the match that follows supplies: each attribute's admitted ids its value
// satisfies (its counter bumps) and their union (the ids counted). It
// reads the satisfied sets fold reads, through the same satisfied, and
// leaves keep as it found it.
func (m *Matcher) count(e *schema.Event, restricted bool) MatchCost {
	words := m.v.words
	keep, or := m.scratch[words:2*words], m.scratch[2*words:3*words]
	cost := MatchCost{EventAttrs: e.Len()}
	for _, f := range e.Fields() {
		a := m.v.attr(f.Attr)
		if a == nil {
			continue
		}
		sat, built := m.satisfied(f, a, restricted)
		for _, sp := range m.words {
			for w := sp.lo; w < sp.hi; w++ {
				s := sat[w] & keep[w]
				cost.CollectedIDs += bits.OnesCount64(s)
				or[w] |= s
			}
			if built {
				clear(sat[sp.lo:sp.hi])
			}
		}
	}
	for _, sp := range m.words {
		for w := sp.lo; w < sp.hi; w++ {
			cost.UniqueIDs += bits.OnesCount64(or[w])
		}
		clear(or[sp.lo:sp.hi])
	}
	return cost
}

// satisfied returns the ids f's value satisfies among the rows of a, over
// the words of m.words: on a restricted match, those of a list row only
// inside the eligible runs. A lone bitset row is returned as it lies, no
// row at all as the empty set; otherwise the rows are merged into the
// merge set, and built reports that the caller must zero it again over
// m.words.
func (m *Matcher) satisfied(f schema.Field, a *attrView, restricted bool) (sat []uint64, built bool) {
	words := m.v.words
	rows := m.lists[:0]
	if f.Value.Arithmetic() {
		if a.aacs != nil {
			rows = a.aacs.AppendLists(rows, f.Value.Num)
		}
	} else if a.sacs != nil {
		rows = a.sacs.AppendLists(rows, f.Value.Str, f.StrHash())
	}
	m.lists = rows
	nl := 0 // list rows first, then bitset rows
	for r, ids := range rows {
		if len(ids) != words {
			rows[nl], rows[r] = ids, rows[nl]
			nl++
		}
	}
	lists, bitsets := rows[:nl], rows[nl:]
	if restricted {
		lists = m.cut(lists)
	}
	switch {
	case len(lists) == 0 && len(bitsets) == 0:
		return m.scratch[:words], false
	case len(lists) == 0 && len(bitsets) == 1:
		return bitsets[0], false
	}
	sat = m.scratch[4*words : 5*words]
	for _, ids := range lists {
		for _, i := range ids {
			sat[i>>6] |= 1 << (i & 63)
		}
	}
	for _, b := range bitsets {
		for _, sp := range m.words {
			for w := sp.lo; w < sp.hi; w++ {
				sat[w] |= b[w]
			}
		}
	}
	return sat, true
}

// cover leaves in m.words the words the fold and the pass read, and sets
// the admitted ids in keep: every id of the view with a non-empty mask for
// an event that covers its union, otherwise the ids of the eligible runs.
// Two runs can share a word; it is listed once. Every id a row lists has a
// mask, so the words of the ids a merge set takes from uncut lists lie in
// m.words, where it is zeroed again.
func (m *Matcher) cover(restricted bool) {
	v := m.v
	keep := m.scratch[v.words : 2*v.words]
	words := m.words[:0]
	if !restricted {
		setBits(keep, v.empty, uint64(len(v.keys)))
		m.words = append(words, span{v.empty >> 6, uint64(v.words)})
		return
	}
	for _, r := range m.runs {
		setBits(keep, r.lo, r.hi)
		lo, hi := r.lo>>6, (r.hi+63)>>6
		if n := len(words); n > 0 && words[n-1].hi >= lo {
			words[n-1].hi = hi
		} else {
			words = append(words, span{lo, hi})
		}
	}
	m.words = words
}

// admit builds the event's attribute mask and reports whether the match
// must be restricted to eligible runs, which it then leaves in m.runs:
// false when the event covers the view's union and every id with a mask
// is admitted. The eligible groups start as every group but the
// empty-mask one; the group bitset of each union attribute the event
// lacks is taken out, and the groups left are walked in index order. That
// costs a word per 64 groups for each absent attribute, plus one step per
// eligible group.
func (m *Matcher) admit(e *schema.Event) bool {
	v := m.v
	m.attrs = m.attrs[:0]
	for _, f := range e.Fields() {
		m.attrs.Set(int(f.Attr))
	}
	if v.union.Within(m.attrs) {
		return false
	}
	eligible := m.scratch[5*v.words:]
	setBits(eligible, min(v.empty, 1), uint64(len(v.groups)))
	for w, absent := range v.union {
		if w < len(m.attrs) {
			absent &^= m.attrs[w]
		}
		for ; absent != 0; absent &= absent - 1 {
			for i, named := range v.attrs[w<<6+bits.TrailingZeros64(absent)].groups {
				eligible[i] &^= named
			}
		}
	}
	runs := m.runs[:0]
	for w, word := range eligible {
		for ; word != 0; word &= word - 1 {
			g := &v.groups[w<<6+bits.TrailingZeros64(word)]
			if n := len(runs); n > 0 && runs[n-1].hi == g.lo {
				runs[n-1].hi = g.hi
			} else {
				runs = append(runs, g.span)
			}
		}
		eligible[w] = 0
	}
	m.runs = runs
	return true
}

// cut returns the parts of lists inside the eligible runs: the admitted
// ids, as sub-slices. A list ascends by index, so a run's part of it is
// found by two binary searches, each starting where the previous run's
// part ended; a run that ends at or before the list's next id is skipped
// on one comparison.
func (m *Matcher) cut(lists [][]uint64) [][]uint64 {
	parts := m.parts[:0]
	for _, ids := range lists {
		j := 0
		for _, r := range m.runs {
			if j == len(ids) {
				break
			}
			if ids[j] >= r.hi {
				continue // no id of the list falls in this run
			}
			lo, _ := slices.BinarySearch(ids[j:], r.lo)
			j += lo
			hi, _ := slices.BinarySearch(ids[j:], r.hi)
			if hi > 0 {
				parts = append(parts, ids[j:j+hi])
			}
			j += hi
		}
	}
	m.parts = parts
	return parts
}

package summary

import (
	"cmp"
	"math/bits"
	"slices"

	"github.com/subsum/subsum/internal/idlist"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/subid"
)

// View is a compiled, read-only match view of one Summary's whole id set.
// It holds what Algorithm 1 reads and nothing else: a private copy of the
// AACS/SACS rows whose id lists carry each subscription's dense index into
// the view's registry slices instead of its c1‖c2 key, so the key→index
// translation is paid once per row entry at build time, and a Matcher
// works on sets of dense indices a machine word at a time.
//
// Invariants, all fixed when Compile returns:
//   - index order is (c3 mask, key) order (subid.Mask.Compare, then key):
//     the ids of one mask form one contiguous run of indices, listed in
//     groups, and within a run index order is key order. A mask is kept
//     once, in its group; groupOf names each index's group.
//   - attrs[a].cons is the bitset of the ids whose mask names attribute a,
//     and attrs[a].groups the bitset, over group numbers, of the groups
//     whose mask names it.
//   - a row of attribute a lists only ids whose mask names a. Ids the
//     registry did not hold at build time — tombstoned rows not yet
//     purged, strays in a hand-built summary — are dropped then, and so
//     are entries of a registered id under an attribute its mask lacks (a
//     corrupt peer payload can carry them): neither can be part of a
//     match, and neither is counted in MatchCost.
//   - a row of at least words ids is a bitset of words words (see
//     idlist); every other row is a list of fewer ids, each below
//     len(keys) and strictly ascending by index, so the part of it inside
//     a run is found by binary search.
//   - union is the OR of every group's mask: an event carrying all of its
//     attributes can be matched with no run consulted at all.
//   - empty is the number of ids whose mask is empty. Mask.Compare sorts
//     the empty mask first, so they are indices [0, empty) and, when
//     there are any, group 0: the first index and group a match admits is
//     empty and min(empty, 1).
//   - nothing is written afterwards: any number of Matchers read one View
//     concurrently while the Summary it was built from keeps mutating.
type View struct {
	// attrs is indexed by AttrID up to the union's last attribute, so a
	// Matcher finds what the view holds for an event attribute with a
	// bounds check rather than a map probe, in one place.
	attrs   []attrView
	keys    []uint64
	groupOf []int32 // index → its group
	groups  []group // one per distinct mask, in index order; their runs partition [0, len(keys))
	union   subid.Mask
	empty   uint64 // ids with an empty mask: indices [0, empty), group 0
	words   int    // ⌈len(keys)/64⌉, the length of every bitset of the view
}

// attrView is what a view holds for one attribute: cons, the bitset of
// the ids whose c3 mask names it; groups, the bitset of ⌈groups/64⌉ words
// of the groups whose mask names it, which an event lacking the attribute
// rules out; and its sets, nil where the summary holds none. Where no mask
// names the attribute, cons and groups are nil and so are the sets: none
// of their rows could list an id.
type attrView struct {
	cons   []uint64
	groups []uint64
	aacs   *interval.Set
	sacs   *strmatch.Compiled
}

// group is the index run of the ids whose c3 mask is mask (shared with the
// summary, read-only once registered).
type group struct {
	mask subid.Mask
	span
}

// span is the index run [lo, hi). Bounds are uint64 so they compare with
// id-list entries directly.
type span struct{ lo, hi uint64 }

// NumSubscriptions returns the number of subscription ids the view covers.
func (v *View) NumSubscriptions() int { return len(v.keys) }

// idAt reconstructs the full subscription id of dense index i.
func (v *View) idAt(i int32) subid.ID {
	broker, local := subid.KeyParts(v.keys[i])
	return subid.ID{Broker: broker, Local: local, Attrs: v.groups[v.groupOf[i]].mask}
}

// Compile builds the view of the summary's current contents in one pass
// over the live rows that translates and filters as it copies; the summary
// is only read, and can keep mutating once Compile returns.
func (sm *Summary) Compile() *View {
	n := len(sm.keys)
	// Index order is (mask, key) order. Deal the registry into one bucket
	// per mask (a map probe per id, on a mask hash), order the buckets by
	// mask, and sort each bucket by key: small sorts, and a comparison sort
	// over the distinct masks only.
	bucket := make([]int32, n) // registry index → bucket, numbered as first seen
	byHash := make(map[uint64]int)
	var masks []subid.Mask // per bucket
	var sizes []uint64
	for i, m := range sm.masks {
		h := uint64(0)
		for w, word := range m { // zero words add nothing; a one-word mask is its own hash
			h ^= bits.RotateLeft64(word, w)
		}
		b, ok := byHash[h]
		if ok && !masks[b].Equal(m) {
			b = slices.IndexFunc(masks, m.Equal) // two masks share a hash
		}
		if !ok || b < 0 {
			b = len(masks)
			if !ok {
				byHash[h] = b
			}
			masks, sizes = append(masks, m), append(sizes, 0)
		}
		bucket[i] = int32(b)
		sizes[b]++
	}
	byMask := make([]int32, len(masks))
	for b := range byMask {
		byMask[b] = int32(b)
	}
	slices.SortFunc(byMask, func(a, b int32) int { return masks[a].Compare(masks[b]) })
	v := &View{
		keys:    make([]uint64, n),
		groupOf: make([]int32, n),
		groups:  make([]group, len(masks)),
		words:   idlist.Words(n),
	}
	next := make([]uint64, len(masks)) // per bucket, its next dense index
	lo := uint64(0)
	for g, b := range byMask {
		v.groups[g] = group{mask: masks[b], span: span{lo, lo + sizes[b]}}
		for r := lo; r < lo+sizes[b]; r++ {
			v.groupOf[r] = int32(g)
		}
		next[b], lo = lo, lo+sizes[b]
		v.union = append(v.union, make(subid.Mask, max(0, len(masks[b])-len(v.union)))...)
		for w, word := range masks[b] {
			v.union[w] |= word
		}
	}
	if len(v.groups) > 0 && v.groups[0].mask.Count() == 0 {
		v.empty = v.groups[0].hi
	}
	v.fillCons()
	order := make([]int32, n) // dense index → registry index
	for i, b := range bucket {
		order[next[b]] = int32(i)
		next[b]++
	}
	for _, g := range v.groups {
		run := order[g.lo:g.hi]
		slices.SortFunc(run, func(a, b int32) int { return cmp.Compare(sm.keys[a], sm.keys[b]) })
		for r, i := range run {
			v.keys[g.lo+uint64(r)] = sm.keys[i]
		}
	}
	lists := &groupSort{groupOf: v.groupOf}
	index := newKeyIndex(v.keys)
	for a, set := range sm.aacs {
		if at := v.attr(a); at != nil {
			at.aacs = set.CloneMapped(n, index.naming(at.cons), lists.add)
		}
	}
	for a, set := range sm.sacs {
		if at := v.attr(a); at != nil {
			at.sacs = set.CloneMapped(n, index.naming(at.cons), lists.add)
		}
	}
	lists.sort(len(v.groups))
	return v
}

// fillCons sizes attrs to the union and builds every cons and every group
// bitset from the group table: each group's run, set a word at a time in
// the cons of every attribute its mask names, and the group's bit in that
// attribute's group bitset.
func (v *View) fillCons() {
	top := 0 // one past the union's last attribute
	for w, word := range v.union {
		if word != 0 {
			top = w<<6 + bits.Len64(word)
		}
	}
	v.attrs = make([]attrView, top)
	gwords := idlist.Words(len(v.groups))
	slab := make([]uint64, v.union.Count()*(v.words+gwords))
	for a := range v.attrs {
		if v.union.Has(a) {
			v.attrs[a].cons, slab = slab[:v.words:v.words], slab[v.words:]
			v.attrs[a].groups, slab = slab[:gwords:gwords], slab[gwords:]
		}
	}
	for gi, g := range v.groups {
		for w, word := range g.mask {
			for ; word != 0; word &= word - 1 {
				at := &v.attrs[w<<6+bits.TrailingZeros64(word)]
				setBits(at.cons, g.lo, g.hi)
				at.groups[gi>>6] |= 1 << (gi & 63)
			}
		}
	}
}

// setBits sets bits [lo, hi) of the bitset bs.
func setBits(bs []uint64, lo, hi uint64) {
	for lo < hi {
		end := min(hi, lo|63+1) // the end of lo's word, or hi
		bs[lo>>6] |= ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
		lo = end
	}
}

// attr returns what the view holds for attribute a, nil when no c3 mask
// names it.
func (v *View) attr(a schema.AttrID) *attrView {
	if int(a) < len(v.attrs) && v.attrs[a].cons != nil {
		return &v.attrs[a]
	}
	return nil
}

// keyIndex maps a view's keys to their dense indices for Compile's
// translation: linear probing over a power-of-two table at most two-thirds
// full, with Fibonacci hashing. A probe of the registry's map was the
// largest single cost of a compile; this one is a multiply and, mostly,
// one slot.
type keyIndex struct {
	keys  []uint64 // the view's, in dense order
	slots []int32  // dense index + 1 of a key hashed here; 0 is empty
	shift uint
}

func newKeyIndex(keys []uint64) *keyIndex {
	size := bits.Len(uint(len(keys) + len(keys)/2))
	t := &keyIndex{keys: keys, slots: make([]int32, 1<<size), shift: uint(64 - size)}
	for r, key := range keys {
		i := t.slot(key)
		for t.slots[i] != 0 {
			i = (i + 1) & uint64(len(t.slots)-1)
		}
		t.slots[i] = int32(r + 1)
	}
	return t
}

func (t *keyIndex) slot(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> t.shift }

// naming returns Compile's translation for the rows of one attribute, whose
// ids are cons: a key's dense index, refused for a key the view does not
// hold and for one whose c3 mask does not name the attribute.
func (t *keyIndex) naming(cons []uint64) func(uint64) (uint64, bool) {
	return func(key uint64) (uint64, bool) {
		i, ok := t.get(key)
		return i, ok && cons[i>>6]&(1<<(i&63)) != 0
	}
}

// get returns key's dense index, or false for a key the view does not hold.
func (t *keyIndex) get(key uint64) (uint64, bool) {
	for i := t.slot(key); ; i = (i + 1) & uint64(len(t.slots)-1) {
		switch r := t.slots[i]; {
		case r == 0:
			return 0, false
		case t.keys[r-1] == key:
			return uint64(r - 1), true
		}
	}
}

// groupSort puts translated id lists in index order. A list arrives in key
// order, translated, so within one group its indices already ascend: one
// stable bucket pass by group sorts every list, in O(entries + groups) and
// with no comparison.
type groupSort struct {
	groupOf []int32    // dense index → group
	lists   [][]uint64 // the lists not yet ascending (a list within one group is)
}

// add keeps ids for sort unless it already ascends.
func (s *groupSort) add(ids []uint64) {
	if !slices.IsSorted(ids) {
		s.lists = append(s.lists, ids)
	}
}

// listEntry is one id-list entry: the list it belongs to and its index.
type listEntry struct{ list, index int32 }

// sort sorts every list add kept, over a view of the given group count.
func (s *groupSort) sort(groups int) {
	lists := s.lists
	next := make([]int32, groups+1) // per group, the next free slot of its bucket
	for _, ids := range lists {
		for _, i := range ids {
			next[s.groupOf[i]+1]++
		}
	}
	for g := 1; g < len(next); g++ {
		next[g] += next[g-1]
	}
	buf := make([]listEntry, next[groups])
	for l, ids := range lists {
		for _, i := range ids {
			g := s.groupOf[i]
			buf[next[g]] = listEntry{int32(l), int32(i)}
			next[g]++
		}
	}
	fill := make([]int32, len(lists)) // per list, the next slot to write
	for _, e := range buf {
		lists[e.list][fill[e.list]] = uint64(e.index)
		fill[e.list]++
	}
}

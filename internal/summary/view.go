package summary

import (
	"slices"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/subid"
)

// View is a compiled, read-only match view of one Summary — its whole id
// set, or one contiguous key range of it (ShardByKey). It holds what
// Algorithm 1 reads and nothing else: a private copy of the AACS/SACS rows
// whose id lists carry each subscription's dense index into the view's
// registry slices instead of its c1‖c2 key, so the key→index translation
// is paid once per row entry at build time and a Matcher addresses its
// counters straight from the row entry.
//
// Invariants, all fixed when ShardByKey returns:
//   - keys is strictly ascending, so index order is key order: id lists
//     stay sorted under the translation, and matched indices sorted
//     ascending name matched keys sorted ascending (what lets per-shard
//     results concatenate into the unsharded answer).
//   - every row id is below len(keys). Ids the registry did not hold at
//     build time — tombstoned rows not yet purged, strays in a hand-built
//     summary — are dropped then: they cannot match, and are not counted
//     in MatchCost either.
//   - each set knows whether one of its queries can list an id twice
//     (CloneMapped's distinct flag, decided in the same pass), so a Matcher
//     counts the lists of most attributes with no per-id dedupe check.
//   - nothing is written afterwards: any number of Matchers read one View
//     concurrently while the Summary it was built from keeps mutating.
type View struct {
	aacs    map[schema.AttrID]*interval.Set
	sacs    map[schema.AttrID]*strmatch.Set
	keys    []uint64
	masks   []subid.Mask // c3 masks, shared with the summary (read-only once registered)
	targets []uint16     // masks[i].Count(), the c3 match target (≤ schema.MaxAttributes)
}

// NumSubscriptions returns the number of subscription ids the view covers.
func (v *View) NumSubscriptions() int { return len(v.keys) }

// idAt reconstructs the full subscription id of dense index i.
func (v *View) idAt(i int32) subid.ID {
	broker, local := subid.KeyParts(v.keys[i])
	return subid.ID{Broker: broker, Local: local, Attrs: v.masks[i]}
}

// ShardByKey compiles the summary into n views over disjoint, contiguous,
// ascending id-key ranges, so one event can be matched across cores
// without shared scratch. Every registered id lands in exactly one view;
// view s covers a key range strictly below view s+1's, which is what
// makes concatenating per-shard match results in shard order globally
// sorted — byte-identical to the unsharded matcher's output at any shard
// count (the determinism rule).
//
// Each view is built in one pass over the live rows that translates and
// filters as it copies; the summary is only read, and can keep mutating
// once ShardByKey returns. n is clamped to [1, number of ids] so no view
// is empty (an empty summary still gets one).
func (sm *Summary) ShardByKey(n int) []*View {
	n = max(1, min(n, len(sm.keys)))
	keys := slices.Clone(sm.keys)
	slices.Sort(keys)
	rank := make([]int, len(keys)) // registry index → position in keys
	masks := make([]subid.Mask, len(keys))
	targets := make([]uint16, len(keys))
	for r, key := range keys {
		i := sm.ids[key]
		rank[i], masks[r], targets[r] = r, sm.masks[i], uint16(sm.targets[i])
	}
	views := make([]*View, n)
	for s := range views {
		lo, hi := s*len(keys)/n, (s+1)*len(keys)/n
		index := func(key uint64) (uint64, bool) {
			i, ok := sm.ids[key]
			if !ok {
				return 0, false
			}
			r := rank[i]
			return uint64(r - lo), lo <= r && r < hi
		}
		v := &View{
			aacs:    make(map[schema.AttrID]*interval.Set, len(sm.aacs)),
			sacs:    make(map[schema.AttrID]*strmatch.Set, len(sm.sacs)),
			keys:    keys[lo:hi:hi],
			masks:   masks[lo:hi:hi],
			targets: targets[lo:hi:hi],
		}
		for a, set := range sm.aacs {
			v.aacs[a] = set.CloneMapped(hi-lo, index)
		}
		for a, set := range sm.sacs {
			v.sacs[a] = set.CloneMapped(hi-lo, index)
		}
		views[s] = v
	}
	return views
}

// compiled returns the one-shard view of the summary's current contents,
// building it on first use after a mutation. Concurrent readers may race
// to build it; they build equal views, so whichever store lands is right.
func (sm *Summary) compiled() *View {
	if v := sm.view.Load(); v != nil {
		return v
	}
	v := sm.ShardByKey(1)[0]
	sm.view.Store(v)
	return v
}

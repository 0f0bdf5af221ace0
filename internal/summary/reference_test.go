package summary

import (
	"sort"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// The map-based Algorithm 1: the oracle the differential tests compare
// Matcher and View against. It shares nothing with the compiled view: it
// reads the live rows by key through interval.Set.QueryInto and
// strmatch.Set.MatchInto (a linear scan, not the operator-class index),
// counts in maps, and states admission per candidate — an id is admitted
// when the event carries every attribute its c3 mask names, checked by
// Mask.Has against the event's fields — never through the view's groups.

// referenceMatchKeysWithCost returns the matched id keys, ascending, and
// the Section 5.2.4 operation counts of the admitted ids.
func (sm *Summary) referenceMatchKeysWithCost(e *schema.Event) ([]uint64, MatchCost) {
	return sm.referenceCount(e, true)
}

// unadmittedMatchKeys is Algorithm 1 as the paper states it, every listed
// id counted. Admission must never change its keys.
func (sm *Summary) unadmittedMatchKeys(e *schema.Event) []uint64 {
	keys, _ := sm.referenceCount(e, false)
	return keys
}

func (sm *Summary) referenceCount(e *schema.Event, admit bool) ([]uint64, MatchCost) {
	var cost MatchCost
	counters := make(map[uint64]int)
	perAttr := make(map[uint64]struct{})
	admitted := func(i int32) bool {
		n := 0
		for _, f := range e.Fields() {
			if sm.masks[i].Has(int(f.Attr)) {
				n++
			}
		}
		return n == sm.masks[i].Count()
	}
	for _, f := range e.Fields() {
		// Step 1: collect satisfied id lists for this attribute.
		cost.EventAttrs++
		clear(perAttr)
		if f.Value.Arithmetic() {
			if s, ok := sm.aacs[f.Attr]; ok {
				s.QueryInto(f.Value.Num, perAttr)
			}
		} else if s, ok := sm.sacs[f.Attr]; ok {
			s.MatchInto(f.Value.Str, perAttr)
		}
		for key := range perAttr {
			// Rows may name ids the registry no longer (or never) held:
			// tombstones awaiting a purge, strays in a hand-built summary.
			// They cannot match, and are not counted as work either, so
			// the cost does not depend on when the last purge ran.
			if i, ok := sm.ids[key]; ok && (!admit || admitted(i)) {
				counters[key]++
				cost.CollectedIDs++
			}
		}
	}
	// Step 2: keep ids whose counter equals their c3 attribute count.
	cost.UniqueIDs = len(counters)
	var out []uint64
	for key, n := range counters {
		if n == sm.masks[sm.ids[key]].Count() {
			out = append(out, key)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	cost.Matched = len(out)
	return out, cost
}

// referenceMatchKeys is referenceMatchKeysWithCost without the counts.
func (sm *Summary) referenceMatchKeys(e *schema.Event) []uint64 {
	keys, _ := sm.referenceMatchKeysWithCost(e)
	return keys
}

// referenceMatch is referenceMatchKeys with each key's full id (c3 mask
// from the registry), as Summary.Match returns them.
func (sm *Summary) referenceMatch(e *schema.Event) []subid.ID {
	keys := sm.referenceMatchKeys(e)
	out := make([]subid.ID, len(keys))
	for i, key := range keys {
		out[i] = sm.idFromKey(key)
	}
	return out
}

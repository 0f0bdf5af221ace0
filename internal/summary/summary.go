// Package summary implements per-broker subscription summaries (Section 3)
// and multi-broker merged summaries (Section 4.1) of the
// subscription-summarization paper.
//
// A Summary is subscription-summary-centric: an incoming subscription is
// dissolved into its attribute constraints, which are merged into the
// per-attribute AACS (arithmetic) and SACS (string) structures; only the
// subscription id (c1‖c2‖c3) survives, in the per-row id lists and in the
// id registry. The paper's Algorithm 1 (Match) recovers the matching ids
// for an incoming event from the structures alone.
//
// Summaries are lossy pre-filters: SACS generalization and AACS equality
// folding can over-approximate. The owning broker re-matches raw
// subscriptions before consumer delivery, so end-to-end matching has no
// false positives and the summary guarantees no false negatives.
package summary

import (
	"fmt"
	"sort"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/subid"
)

// Summary holds the summarized subscriptions of one broker — or, after
// merging, of a set of brokers (a multi-broker summary).
type Summary struct {
	schema *schema.Schema
	aacs   map[schema.AttrID]*interval.Set
	sacs   map[schema.AttrID]*strmatch.Set

	// Subscription-id registry. ids maps an id key (c1‖c2) to a dense
	// index into the parallel keys/masks slices (insertion order,
	// swap-deleted). Masks are read-only once registered.
	ids   map[uint64]int32
	keys  []uint64
	masks []subid.Mask

	// retract is the pending-retraction set: id keys whose subscriptions
	// were withdrawn and whose removal must still reach downstream peers.
	// No retracted key is visible in the summary: AddRetraction removes
	// the key's rows, and MergeEncoded applies a payload's retractions
	// after its rows, so a summary carrying retractions is self-consistent.
	// Nil until the first retraction (the common, churn-free case).
	retract map[uint64]struct{}

	// dead is the tombstone set: keys removed from the registry whose rows
	// may still linger in the per-attribute structures. RemoveKey
	// tombstones instead of sweeping so an unsubscribe is O(1) — the old
	// per-removal sweep made n removals O(n²). Matching filters dead ids
	// through the registry for free; every row-reading operation (Compact,
	// MergeEncoded, Clone, encode, Stats, Validate) purges first, and Insert
	// purges when a tombstoned key is re-registered so stale rows can
	// never over-count a reused id past its c3 target.
	dead map[uint64]struct{}
}

// New returns an empty summary over the given schema. The AACS equality
// handling is always interval.Lossy, the paper's behaviour.
func New(s *schema.Schema, _ interval.Mode) *Summary {
	return &Summary{
		schema: s,
		aacs:   make(map[schema.AttrID]*interval.Set),
		sacs:   make(map[schema.AttrID]*strmatch.Set),
		ids:    make(map[uint64]int32),
	}
}

// registerID adds key→mask to the registry, taking ownership of mask.
// The caller has checked that key is not registered yet.
func (sm *Summary) registerID(key uint64, mask subid.Mask) {
	sm.ids[key] = int32(len(sm.keys))
	sm.keys = append(sm.keys, key)
	sm.masks = append(sm.masks, mask)
}

// maskOf returns the registered c3 mask for key, nil if unregistered.
func (sm *Summary) maskOf(key uint64) subid.Mask {
	if i, ok := sm.ids[key]; ok {
		return sm.masks[i]
	}
	return nil
}

// Schema returns the schema the summary was built over.
func (sm *Summary) Schema() *schema.Schema { return sm.schema }

// NumSubscriptions returns the number of distinct subscription ids
// summarized.
func (sm *Summary) NumSubscriptions() int { return len(sm.keys) }

// Contains reports whether the summary covers the given subscription id.
func (sm *Summary) Contains(id subid.ID) bool {
	_, ok := sm.ids[id.Key()]
	return ok
}

// Insert dissolves the subscription into its attribute constraints and
// merges them into the per-attribute summary structures. The id's c3 mask
// is derived from the subscription if id.Attrs is nil.
func (sm *Summary) Insert(id subid.ID, sub *schema.Subscription) error {
	attrs := sub.AttrSet()
	if id.Attrs == nil {
		id.Attrs = subid.NewMask(sm.schema.Len())
		for _, a := range attrs {
			id.Attrs.Set(int(a))
		}
	}
	key := id.Key()
	if _, dup := sm.ids[key]; dup {
		return fmt.Errorf("summary: duplicate subscription id %v", id)
	}
	if _, tomb := sm.dead[key]; tomb {
		// The key is being reused before its old rows were purged: sweep
		// now, or the stale rows would count extra attributes against the
		// new subscription and could push it past its c3 target (a false
		// negative, which the design forbids).
		sm.purgeDead()
	}
	// Group constraints per attribute.
	for _, a := range attrs {
		t := sm.schema.TypeOf(a)
		switch {
		case t == schema.TypeInvalid:
			return fmt.Errorf("summary: constraint on unknown attribute %d", a)
		case t.Arithmetic():
			if err := sm.insertArithmetic(key, a, sub); err != nil {
				return err
			}
		default:
			if err := sm.insertString(key, a, sub); err != nil {
				return err
			}
		}
	}
	sm.registerID(key, id.Attrs.Clone())
	return nil
}

// insertArithmetic canonicalizes all arithmetic constraints of sub on
// attribute a into a single interval (as Figure 4 does for
// "8.30 < price < 8.70") plus any ≠ entries, and inserts them.
func (sm *Summary) insertArithmetic(key uint64, a schema.AttrID, sub *schema.Subscription) error {
	iv := interval.Full()
	hasInterval := false
	hasNE := false
	for _, c := range sub.Constraints {
		if c.Attr != a {
			continue
		}
		if c.Op == schema.OpNE {
			sm.arithSet(a).InsertNotEqual(c.Value.Num, key)
			hasNE = true
			continue
		}
		part, ok := intervalOf(c.Op, c.Value.Num)
		if !ok {
			return fmt.Errorf("summary: operator %v not valid on arithmetic attribute", c.Op)
		}
		iv = interval.Intersect(iv, part)
		hasInterval = true
	}
	if hasInterval {
		sm.arithSet(a).Insert(iv, key)
	} else if !hasNE {
		return fmt.Errorf("summary: attribute %d listed but unconstrained", a)
	}
	return nil
}

// insertString inserts each string constraint of sub on attribute a as a
// SACS pattern.
func (sm *Summary) insertString(key uint64, a schema.AttrID, sub *schema.Subscription) error {
	inserted := false
	for _, c := range sub.Constraints {
		if c.Attr != a {
			continue
		}
		if !c.Op.StringOp() {
			return fmt.Errorf("summary: operator %v not valid on string attribute", c.Op)
		}
		sm.strSet(a).Insert(strmatch.FromConstraint(c), key)
		inserted = true
	}
	if !inserted {
		return fmt.Errorf("summary: attribute %d listed but unconstrained", a)
	}
	return nil
}

// intervalOf maps an arithmetic operator to its value interval.
func intervalOf(op schema.Op, v float64) (interval.Interval, bool) {
	switch op {
	case schema.OpEQ:
		return interval.Point(v), true
	case schema.OpLT:
		return interval.Below(v, false), true
	case schema.OpLE:
		return interval.Below(v, true), true
	case schema.OpGT:
		return interval.Above(v, false), true
	case schema.OpGE:
		return interval.Above(v, true), true
	default:
		return interval.Interval{}, false
	}
}

func (sm *Summary) arithSet(a schema.AttrID) *interval.Set {
	s, ok := sm.aacs[a]
	if !ok {
		s = interval.NewSet(interval.Lossy)
		sm.aacs[a] = s
	}
	return s
}

func (sm *Summary) strSet(a schema.AttrID) *strmatch.Set {
	s, ok := sm.sacs[a]
	if !ok {
		s = strmatch.NewSet()
		sm.sacs[a] = s
	}
	return s
}

// Remove deletes the subscription id from every structure (the summary
// maintenance path for unsubscription).
func (sm *Summary) Remove(id subid.ID) { sm.RemoveKey(id.Key()) }

// RemoveKey is Remove by raw id key (c1‖c2), for callers holding only the
// wire form of an id — the retraction-apply path. It is O(1): the key
// leaves the registry immediately (so it can no longer match) and its
// rows are tombstoned, swept out in batch by the next purge point.
func (sm *Summary) RemoveKey(key uint64) {
	i, ok := sm.ids[key]
	if !ok {
		return
	}
	// Swap-delete from the dense registry: the last key takes the vacated
	// index so the slices stay dense.
	last := int32(len(sm.keys) - 1)
	if i != last {
		sm.keys[i] = sm.keys[last]
		sm.masks[i] = sm.masks[last]
		sm.ids[sm.keys[i]] = i
	}
	sm.keys = sm.keys[:last]
	sm.masks = sm.masks[:last]
	delete(sm.ids, key)
	if sm.dead == nil {
		sm.dead = make(map[uint64]struct{})
	}
	sm.dead[key] = struct{}{}
}

// purgeDead sweeps tombstoned rows out of the per-attribute structures —
// one pass per structure regardless of how many removals accumulated.
func (sm *Summary) purgeDead() {
	if len(sm.dead) == 0 {
		return
	}
	for _, s := range sm.aacs {
		s.RemoveAll(sm.dead)
	}
	for _, s := range sm.sacs {
		s.RemoveAll(sm.dead)
	}
	clear(sm.dead)
}

// Compact merges fragmented adjacent AACS rows left behind by churn
// (insert/remove cycles); matching behaviour is unchanged. Returns the
// number of rows eliminated.
func (sm *Summary) Compact() int {
	sm.purgeDead()
	total := 0
	for _, s := range sm.aacs {
		total += s.Compact()
	}
	return total
}

// AddRetraction records that the subscription with the given id key was
// withdrawn: the key's rows (if any) are removed immediately and the key
// joins the pending-retraction set, which travels with the summary's wire
// form so downstream merged summaries shrink too.
func (sm *Summary) AddRetraction(key uint64) {
	sm.RemoveKey(key)
	if sm.retract == nil {
		sm.retract = make(map[uint64]struct{})
	}
	sm.retract[key] = struct{}{}
}

// Retractions returns the pending-retraction keys, sorted ascending.
func (sm *Summary) Retractions() []uint64 {
	if len(sm.retract) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(sm.retract))
	for k := range sm.retract {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumRetractions returns the number of pending retractions.
func (sm *Summary) NumRetractions() int { return len(sm.retract) }

// ClearRetractions empties the pending-retraction set without touching
// rows. Long-lived merged summaries call this after applying a payload's
// retractions: they consume retractions but never re-propagate them, so
// retaining the keys would grow memory with total churn instead of live
// subscriptions.
func (sm *Summary) ClearRetractions() { sm.retract = nil }

// Match runs Algorithm 1 (see Matcher) on the event once, through a
// view compiled for the call: the ids whose subscriptions the summary says
// match, sorted by id key. Callers matching many events against one
// summary hold a Matcher instead and reuse its view and scratch.
func (sm *Summary) Match(e *schema.Event) []subid.ID { return sm.NewMatcher().Match(e) }

// MatchKeys is Match returning raw id keys (ascending), owned by the
// caller.
func (sm *Summary) MatchKeys(e *schema.Event) []uint64 { return sm.NewMatcher().MatchKeys(e) }

// MatchCost instruments one Algorithm 1 run with the operation counts of
// the Section 5.2.4 analysis: step 1's id-list collection work (the T1
// term) and step 2's counter scan over the P collected subscriptions (T2).
// The Matcher works a word of ids at a time and keeps no counters, but it
// reports these counts exactly as counting would find them. Only admitted
// ids count (see Matcher): an id whose c3 mask names an attribute the
// event lacks is never collected.
type MatchCost struct {
	// EventAttrs is the number of event attributes examined (n_ae + n_se).
	EventAttrs int
	// CollectedIDs is the total distinct admitted ids collected across
	// attributes — the ΣL work of T1.
	CollectedIDs int
	// UniqueIDs is P, the distinct admitted subscriptions counted in step 2
	// (T2).
	UniqueIDs int
	// Matched is the number of ids whose counters reached their c3 count.
	Matched int
}

// idFromKey reconstructs a full subscription id from its key and the
// registry's c3 mask.
func (sm *Summary) idFromKey(key uint64) subid.ID {
	broker, local := subid.KeyParts(key)
	return subid.ID{Broker: broker, Local: local, Attrs: sm.maskOf(key)}
}

// IDs returns all summarized subscription ids, sorted by key.
func (sm *Summary) IDs() []subid.ID {
	keys := append([]uint64(nil), sm.keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]subid.ID, len(keys))
	for i, key := range keys {
		out[i] = sm.idFromKey(key)
	}
	return out
}

// Clone returns a deep copy of the summary.
func (sm *Summary) Clone() *Summary {
	sm.purgeDead()
	out := New(sm.schema, interval.Lossy)
	for a, s := range sm.aacs {
		out.aacs[a] = s.Clone()
	}
	for a, s := range sm.sacs {
		out.sacs[a] = s.Clone()
	}
	for i, key := range sm.keys {
		out.registerID(key, sm.masks[i].Clone())
	}
	if len(sm.retract) > 0 {
		out.retract = make(map[uint64]struct{}, len(sm.retract))
		for k := range sm.retract {
			out.retract[k] = struct{}{}
		}
	}
	return out
}

// Stats aggregates the shape of all per-attribute structures.
type Stats struct {
	Arithmetic    interval.Stats
	Strings       strmatch.Stats
	NumAACS       int // attributes with an AACS
	NumSACS       int // attributes with a SACS
	Subscriptions int
}

// Stats computes aggregate structure statistics.
func (sm *Summary) Stats() Stats {
	sm.purgeDead()
	var st Stats
	st.NumAACS = len(sm.aacs)
	st.NumSACS = len(sm.sacs)
	st.Subscriptions = len(sm.keys)
	for _, s := range sm.aacs {
		a := s.Stats()
		st.Arithmetic.NumRanges += a.NumRanges
		st.Arithmetic.NumEq += a.NumEq
		st.Arithmetic.NumNE += a.NumNE
		st.Arithmetic.IDEntries += a.IDEntries
	}
	for _, s := range sm.sacs {
		b := s.Stats()
		st.Strings.NumRows += b.NumRows
		st.Strings.NumNE += b.NumNE
		st.Strings.IDEntries += b.IDEntries
		st.Strings.PatternBytes += b.PatternBytes
	}
	return st
}

// SizeBytes returns the summary's size under the paper's cost model:
// equation (1) summed over arithmetic attributes plus equation (2) summed
// over string attributes. sst and sid are the storage sizes of an
// arithmetic value and a subscription id (both 4 in Table 2).
func (sm *Summary) SizeBytes(sst, sid int) int {
	sm.purgeDead()
	n := 0
	for _, s := range sm.aacs {
		n += s.SizeBytes(sst, sid)
	}
	for _, s := range sm.sacs {
		n += s.SizeBytes(sid)
	}
	return n
}

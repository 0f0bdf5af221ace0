package summary

import (
	"cmp"
	"slices"
	"sync"

	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// Matcher is Algorithm 1 (PAPER.md §3.2), run against a compiled View with
// zero steady-state allocations. Step 1: for every attribute of the event,
// walk the id lists of the AACS/SACS rows its value satisfies where they
// lie (interval.Set.AppendLists, strmatch.Set.AppendLists) and bump one
// counter per listed subscription. Step 2: report the ids whose counter
// equals their c3 attribute count, sorted by id key. A View's lists hold
// dense registry indices, so both steps address plain slices at the listed
// index, with no lookup per candidate.
//
// Only admitted ids are counted: those whose c3 mask lies within the
// event's attributes. Any other id misses an attribute it constrains, so it
// could never reach its target. When the event carries every attribute of
// the view's union, every id is admitted and the lists are walked whole.
// Otherwise the runs of the groups the event covers are coalesced, and
// each list is walked only inside them.
//
// The counters are all zero between events: an id is first sighted when
// its counter reads 0, and step 2 zeroes every counter it examines. A
// counter left non-zero would be a silent false negative on a later event.
// An id must be counted once per attribute; a set whose single query can
// list one id twice says so (the walks' distinct result), and only then
// does the walk check each id against a per-attribute mark, the counter's
// top bit, cleared again before the next attribute.
//
// A matcher from Summary.NewMatcher follows its summary: each match reads
// the summary's current view, recompiled on the first match after a
// mutation. A matcher from View.NewMatcher is bound to that view. Either
// must not be used concurrently with itself or with mutations of its
// summary, but any number of matchers may match concurrently against the
// same summary or view (see MatcherPool).
type Matcher struct {
	sm *Summary // non-nil: re-read sm's current view on every match
	v  *View    // the view of the last match

	count   []uint16   // per dense id; at least len(v.keys) long, all zero between events
	touched []int32    // dense ids seen this event, in first-seen order; len(count)+1 slots
	hit     []int32    // dense ids that reached their target
	lists   [][]uint64 // headers of the id lists one attribute consults
	parts   [][]uint64 // the same lists cut to the eligible runs
	attrs   subid.Mask // the event's attributes
	runs    []span     // eligible index runs, ascending and coalesced
	out     []uint64   // matched keys of the last call

	batch []uint64   // MatchBatch: every event's keys back to back
	res   [][]uint64 // MatchBatch: per-event windows into batch

	obs *MatcherObs // optional cost instrumentation; nil = one branch per event
}

// MatcherObs aggregates the Section 5.2.4 operation counts of every match
// into registry counters: Events counts matched events, Collected the
// per-attribute id-list entries counted (admitted ids only), and Matched
// the ids that reached their c3 attribute count (the summary filter hits
// forwarded for exact re-matching). All fields are optional; nil counters
// are skipped.
type MatcherObs struct {
	Events    *metrics.Counter
	Collected *metrics.Counter
	Matched   *metrics.Counter
}

// SetObs attaches cost instrumentation to the matcher (nil detaches).
// When detached the steady-state overhead is a single nil check per
// event, preserving the matcher's zero-allocation hot path.
func (m *Matcher) SetObs(obs *MatcherObs) { m.obs = obs }

// countedBit marks a counter already bumped for the attribute being walked
// (see MatchKeysWithCost). A counter counts attributes, so it stays below
// the bit; the second constant fails to compile if a schema could grow
// past that.
const (
	countedBit = 1 << 15
	_          = uint(countedBit - 1 - schema.MaxAttributes)
)

// NewMatcher returns a Matcher that follows sm through its mutations.
func (sm *Summary) NewMatcher() *Matcher { return &Matcher{sm: sm} }

// NewMatcher returns a Matcher bound to v.
func (v *View) NewMatcher() *Matcher { return &Matcher{v: v} }

// Match returns the ids of the subscriptions the summary says match e, in
// ascending key order, each with its c3 mask. The returned ids are freshly
// allocated and owned by the caller.
func (m *Matcher) Match(e *schema.Event) []subid.ID {
	m.record(1, m.collect(e))
	out := make([]subid.ID, len(m.hit))
	for i, idx := range m.hit {
		out[i] = m.v.idAt(idx)
	}
	slices.SortFunc(out, func(a, b subid.ID) int { return cmp.Compare(a.Key(), b.Key()) })
	return out
}

// MatchBatch matches a run of events in order: res[i] is events[i]'s
// matched keys, ascending. The slices are scratch owned by the matcher,
// valid until the next call. The cost observers see the run once.
func (m *Matcher) MatchBatch(events []*schema.Event) [][]uint64 {
	m.batch, m.res = m.batch[:0], m.res[:0]
	var total MatchCost
	for _, e := range events {
		keys, cost := m.match(e)
		total.CollectedIDs += cost.CollectedIDs
		total.Matched += cost.Matched
		start := len(m.batch)
		m.batch = append(m.batch, keys...)
		// A later append may move batch; this window keeps the old array.
		m.res = append(m.res, m.batch[start:len(m.batch):len(m.batch)])
	}
	m.record(len(events), total)
	return m.res
}

// MatchKeys returns the matched id keys in ascending order. The slice is
// scratch owned by the matcher, valid until the next call.
func (m *Matcher) MatchKeys(e *schema.Event) []uint64 {
	keys, _ := m.MatchKeysWithCost(e)
	return keys
}

// MatchKeysWithCost is MatchKeys with the Section 5.2.4 operation counts.
func (m *Matcher) MatchKeysWithCost(e *schema.Event) ([]uint64, MatchCost) {
	keys, cost := m.match(e)
	m.record(1, cost)
	return keys, cost
}

// record adds a run of events' counts to the attached observers.
func (m *Matcher) record(events int, cost MatchCost) {
	if m.obs == nil {
		return
	}
	if m.obs.Events != nil {
		m.obs.Events.Add(int64(events))
	}
	if m.obs.Collected != nil {
		m.obs.Collected.Add(int64(cost.CollectedIDs))
	}
	if m.obs.Matched != nil {
		m.obs.Matched.Add(int64(cost.Matched))
	}
}

// match is MatchKeysWithCost without the observers.
func (m *Matcher) match(e *schema.Event) ([]uint64, MatchCost) {
	cost := m.collect(e)
	m.out = m.out[:0]
	for _, idx := range m.hit {
		m.out = append(m.out, m.v.keys[idx])
	}
	slices.Sort(m.out)
	return m.out, cost
}

// collect runs Algorithm 1 on e and leaves the dense ids that matched in
// m.hit, in the order they were first sighted: neither key nor index order.
func (m *Matcher) collect(e *schema.Event) MatchCost {
	if m.sm != nil {
		m.v = m.sm.compiled()
	}
	v := m.v
	if n := len(v.keys); len(m.count) < n {
		// The view grew (or this is the first event). Old counters are zero
		// and stay valid whatever the new view's indices mean.
		m.count = append(m.count, make([]uint16, n-len(m.count))...)
		m.touched = make([]int32, len(m.count)+1)
	}
	restricted := m.admit(e)
	var cost MatchCost
	count, touched, seen := m.count, m.touched, 0
	for _, f := range e.Fields() {
		// Step 1: count the id lists this attribute's value satisfies.
		cost.EventAttrs++
		lists, distinct := m.lists[:0], true
		if f.Value.Arithmetic() {
			if s := v.arith(f.Attr); s != nil {
				lists, distinct = s.AppendLists(lists, f.Value.Num)
			}
		} else if s := v.str(f.Attr); s != nil {
			lists, distinct = s.AppendLists(lists, f.Value.Str)
		}
		m.lists = lists
		if restricted {
			lists = m.cut(lists)
		}
		if distinct {
			for _, ids := range lists {
				cost.CollectedIDs += len(ids)
				for _, idx := range ids {
					// The slot is written whether or not idx is new and kept
					// only if it is (at most len(v.keys) ids are, hence the
					// spare slot): "new" is unpredictable, and a branch on it
					// costs more than the store.
					c := count[idx]
					touched[seen] = int32(idx)
					if c == 0 {
						seen++
					}
					count[idx] = c + 1
				}
			}
			continue
		}
		// One id may sit in two of the lists and must count once: mark each
		// counter bumped for this attribute, skip marked ones, and unmark in
		// a second pass over the same lists.
		for _, ids := range lists {
			for _, idx := range ids {
				c := count[idx]
				if c&countedBit != 0 {
					continue
				}
				if c == 0 {
					touched[seen] = int32(idx)
					seen++
				}
				count[idx] = c + 1 | countedBit
				cost.CollectedIDs++
			}
		}
		for _, ids := range lists {
			for _, idx := range ids {
				count[idx] &^= countedBit
			}
		}
	}
	// Step 2: keep ids whose counter equals their c3 attribute count, and
	// restore the all-zero state.
	cost.UniqueIDs = seen
	hit, targets := m.hit[:0], v.targets
	for _, idx := range touched[:seen] {
		if count[idx] == targets[idx] {
			hit = append(hit, idx)
		}
		count[idx] = 0
	}
	m.hit = hit
	cost.Matched = len(hit)
	return cost
}

// admit builds the event's attribute mask and reports whether the match
// must be restricted to eligible runs, which it then leaves in m.runs:
// false when the event covers the view's union and every id is admitted.
func (m *Matcher) admit(e *schema.Event) bool {
	m.attrs = m.attrs[:0]
	for _, f := range e.Fields() {
		m.attrs.Set(int(f.Attr))
	}
	v := m.v
	if v.union.Within(m.attrs) {
		return false
	}
	runs := m.runs[:0]
	for _, g := range v.groups {
		if !g.mask.Within(m.attrs) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].hi == g.lo {
			runs[n-1].hi = g.hi
		} else {
			runs = append(runs, g.span)
		}
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

// MatcherPool pools Matchers bound to one summary for concurrent event
// sweeps: each worker Gets a matcher, matches a batch, and Puts it back,
// reusing scratch state across events and workers without locking.
type MatcherPool struct {
	pool sync.Pool
}

// NewMatcherPool returns a pool whose matchers are bound to sm.
func NewMatcherPool(sm *Summary) *MatcherPool {
	p := &MatcherPool{}
	p.pool.New = func() any { return sm.NewMatcher() }
	return p
}

// Get returns a matcher bound to the pool's summary.
func (p *MatcherPool) Get() *Matcher { return p.pool.Get().(*Matcher) }

// Put returns m to the pool.
func (p *MatcherPool) Put(m *Matcher) { p.pool.Put(m) }

package summary

import (
	"slices"
	"sync"

	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// Matcher is Algorithm 1 (PAPER.md §3.2), run against a compiled View with
// zero steady-state allocations. Step 1: for every attribute of the event,
// collect the id lists of the AACS/SACS rows its value satisfies, through
// the structures' append-style paths (interval.Set.AppendMatches,
// strmatch.Set.AppendMatches). Step 2: count, per subscription, the
// distinct attributes satisfied, and report the ids whose count equals
// their c3 attribute count, sorted by id key. A View's lists hold dense
// registry indices, so step 2 reads and writes plain slices at the
// collected index, with no lookup per candidate.
//
// A matcher from Summary.NewMatcher follows its summary: each match reads
// the summary's current one-shard view, recompiled on the first match
// after a mutation. A matcher from View.NewMatcher is bound to that view.
// Either must not be used concurrently with itself or with mutations of
// its summary, but any number of matchers may match concurrently against
// the same summary or view (see MatcherPool).
type Matcher struct {
	sm *Summary // non-nil: re-read sm's current view on every match
	v  *View    // the view of the last match

	// token is a monotonically increasing epoch: one tick per event plus
	// one per event attribute with matches. mark[i] records the token at
	// which dense id i was last counted, so "already counted for this
	// attribute" is mark[i] == attrToken and "first sighting this event"
	// is mark[i] < eventToken — no clearing between events, nor when the
	// view (and with it the meaning of i) changes.
	token   uint64
	mark    []uint64
	count   []int32
	touched []int32  // dense ids seen this event, in first-seen order
	hit     []int32  // dense ids that reached their target, ascending
	buf     []uint64 // per-attribute id-list collection scratch
	out     []uint64 // matched keys of the last call

	obs *MatcherObs // optional cost instrumentation; nil = one branch per event
}

// MatcherObs aggregates the Section 5.2.4 operation counts of every match
// into registry counters: Events counts matched events, Collected the
// per-attribute id-list entries examined, and Matched the ids that
// reached their c3 attribute count (the summary filter hits forwarded for
// exact re-matching). All fields are optional; nil counters are skipped.
type MatcherObs struct {
	Events    *metrics.Counter
	Collected *metrics.Counter
	Matched   *metrics.Counter
}

// SetObs attaches cost instrumentation to the matcher (nil detaches).
// When detached the steady-state overhead is a single nil check per
// event, preserving the matcher's zero-allocation hot path.
func (m *Matcher) SetObs(obs *MatcherObs) { m.obs = obs }

// NewMatcher returns a Matcher that follows sm through its mutations.
func (sm *Summary) NewMatcher() *Matcher { return &Matcher{sm: sm} }

// NewMatcher returns a Matcher bound to v.
func (v *View) NewMatcher() *Matcher { return &Matcher{v: v} }

// Match returns the ids of the subscriptions the summary says match e, in
// ascending key order, each with its c3 mask. The returned ids are freshly
// allocated and owned by the caller.
func (m *Matcher) Match(e *schema.Event) []subid.ID {
	m.MatchKeys(e)
	out := make([]subid.ID, len(m.hit))
	for i, idx := range m.hit {
		out[i] = m.v.idAt(idx)
	}
	return out
}

// MatchKeys returns the matched id keys in ascending order. The slice is
// scratch owned by the matcher, valid until the next call.
func (m *Matcher) MatchKeys(e *schema.Event) []uint64 {
	keys, _ := m.MatchKeysWithCost(e)
	return keys
}

// MatchKeysWithCost is MatchKeys with the Section 5.2.4 operation counts.
func (m *Matcher) MatchKeysWithCost(e *schema.Event) ([]uint64, MatchCost) {
	if m.sm != nil {
		m.v = m.sm.compiled()
	}
	v := m.v
	if n := len(v.keys); len(m.mark) < n {
		// The view grew (or this is the first event): extend the dense
		// scratch. Fresh slots are zero, which every token treats as stale.
		m.mark = append(m.mark, make([]uint64, n-len(m.mark))...)
		m.count = append(m.count, make([]int32, n-len(m.count))...)
	}
	var cost MatchCost
	m.token++
	eventToken := m.token
	m.touched = m.touched[:0]
	for _, f := range e.Fields() {
		// Step 1: collect satisfied id lists for this attribute.
		cost.EventAttrs++
		m.buf = m.buf[:0]
		if f.Value.Arithmetic() {
			if s, ok := v.aacs[f.Attr]; ok {
				m.buf = s.AppendMatches(m.buf, f.Value.Num)
			}
		} else if s, ok := v.sacs[f.Attr]; ok {
			m.buf = s.AppendMatches(m.buf, f.Value.Str)
		}
		if len(m.buf) == 0 {
			continue
		}
		m.token++
		attrToken := m.token
		for _, idx := range m.buf {
			if m.mark[idx] == attrToken {
				continue // already counted for this attribute
			}
			if m.mark[idx] < eventToken {
				m.count[idx] = 0
				m.touched = append(m.touched, int32(idx))
			}
			m.mark[idx] = attrToken
			m.count[idx]++
			cost.CollectedIDs++
		}
	}
	// Step 2: keep ids whose counter equals their c3 attribute count.
	cost.UniqueIDs = len(m.touched)
	m.hit = m.hit[:0]
	for _, idx := range m.touched {
		if m.count[idx] == v.targets[idx] {
			m.hit = append(m.hit, idx)
		}
	}
	slices.Sort(m.hit) // index order is key order
	m.out = m.out[:0]
	for _, idx := range m.hit {
		m.out = append(m.out, v.keys[idx])
	}
	cost.Matched = len(m.out)
	if m.obs != nil {
		if m.obs.Events != nil {
			m.obs.Events.Inc()
		}
		if m.obs.Collected != nil {
			m.obs.Collected.Add(int64(cost.CollectedIDs))
		}
		if m.obs.Matched != nil {
			m.obs.Matched.Add(int64(cost.Matched))
		}
	}
	return m.out, cost
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

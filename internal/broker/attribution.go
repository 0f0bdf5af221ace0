// False-positive attribution: when an event that some summary admitted
// reaches a broker's exact-match stage and no raw subscription matches,
// the broker walks the candidate rows that admitted it and charges the
// miss to the responsible (attribute, operator-class, owner-broker)
// triple. The paper's §5 precision metric becomes a live, per-row
// diagnostic: which attribute's summary rows over-approximate, under
// which operator class, owned by whom.
//
// Attribution is best-effort by construction. The candidates are the ids
// the routing broker's match named for this owner (its deliver record, or
// the local hop's own match result) — the rows that actually admitted the
// event there; the first failing constraint of each live candidate is the
// charge, and a candidate with no live raw subscription behind it
// (snapshot lag, a stale remote row after an unsubscribe) is charged to
// the "stale" class. The charge never panics and never blocks the hot
// path beyond one nil check: the space-saving counter is bounded (top-K
// with documented overestimates), the per-attribute tallies are plain
// atomics, and everything runs only on the false-positive branch —
// delivery credits on the hit branch are a handful of atomic adds.
package broker

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// FPClass groups constraint operators into the coarse classes the
// attribution counter distinguishes: a range row and an equality row
// over-approximate for different structural reasons (interval hulls vs
// merged id sets), so the class — not the exact operator — is the
// actionable signal.
type FPClass uint8

// Operator classes charged by false-positive attribution.
const (
	FPClassEq       FPClass = iota // =
	FPClassNe                      // !=
	FPClassRange                   // < <= > >=
	FPClassPrefix                  // >*
	FPClassSuffix                  // *<
	FPClassContains                // *
	FPClassGlob                    // ~
	FPClassStale                   // candidate row with no live subscription behind it
)

// String names the class.
func (c FPClass) String() string {
	switch c {
	case FPClassEq:
		return "eq"
	case FPClassNe:
		return "ne"
	case FPClassRange:
		return "range"
	case FPClassPrefix:
		return "prefix"
	case FPClassSuffix:
		return "suffix"
	case FPClassContains:
		return "contains"
	case FPClassGlob:
		return "glob"
	case FPClassStale:
		return "stale"
	default:
		return "unknown"
	}
}

// ClassifyOp maps a constraint operator to its attribution class.
func ClassifyOp(op schema.Op) FPClass {
	switch op {
	case schema.OpEQ:
		return FPClassEq
	case schema.OpNE:
		return FPClassNe
	case schema.OpLT, schema.OpLE, schema.OpGT, schema.OpGE:
		return FPClassRange
	case schema.OpPrefix:
		return FPClassPrefix
	case schema.OpSuffix:
		return FPClassSuffix
	case schema.OpContains:
		return FPClassContains
	case schema.OpGlob:
		return FPClassGlob
	default:
		return FPClassStale
	}
}

// FPNoAttr is the sentinel attribute of charges that have no responsible
// attribute: a stale candidate row, or a false positive with no local
// candidate at all (the sender's merged view of this broker was stale).
const FPNoAttr = schema.AttrID(^uint16(0))

// FPKey is one attribution bucket.
type FPKey struct {
	Attr  schema.AttrID
	Class FPClass
	Owner subid.BrokerID
}

// packed folds the key into one word, so the slot index hashes an
// integer instead of a padded struct.
func (k FPKey) packed() uint64 {
	return uint64(k.Attr)<<40 | uint64(k.Class)<<32 | uint64(k.Owner)
}

// fpEntry is one space-saving bucket: count may overestimate the true
// frequency by at most err (the count of the entry it evicted).
type fpEntry struct {
	key   FPKey
	count int64
	err   int64
}

// attrHeadroom is how many attribute slots beyond the construction-time
// schema the per-attribute tallies reserve, so ExtendSchema'd attributes
// keep counting without reallocation. Attributes beyond the headroom are
// silently untallied (best-effort; the top-K still names them).
const attrHeadroom = 16

// FPAttributor aggregates false-positive attributions network-wide: a
// bounded space-saving top-K over (attribute, operator-class, owner)
// triples plus per-attribute delivered/false-positive tallies from which
// per-attribute precision derives. One attributor is shared by every
// broker of a network; all methods are safe for concurrent use and a
// nil receiver is valid and records nothing.
type FPAttributor struct {
	schema *schema.Schema
	rec    *flight.Recorder
	k      int

	// The top-K table is a slice of at most k entries plus a packed-key →
	// slot index. A charge to an established triple is one integer-keyed
	// lookup; a space-saving eviction finds the smallest count by scanning
	// the slice's contiguous entries (k = 64: 2 KB) and rewrites one slot.
	// Every broker's false-positive branch shares mu, so both are kept
	// short: a min-heap was tried and lost at this k (238 against 120 ns
	// per eviction) to the index entries each sift step rewrites.
	mu    sync.Mutex
	top   []fpEntry
	pos   map[uint64]int
	total atomic.Int64

	// Per-attribute tallies, indexed by AttrID; fixed at construction
	// (schema size + headroom) so the observation path never grows them.
	fpByAttr  []atomic.Int64
	delByAttr []atomic.Int64
	// Registry counters per construction-time attribute (nil entries when
	// no registry was given or the attribute arrived later).
	fpCounters  []*metrics.Counter
	delCounters []*metrics.Counter
	evictions   *metrics.Counter // space-saving evictions (nil without a registry)
}

// NewFPAttributor builds an attributor over the schema's attributes.
// reg and rec may be nil; k bounds the top-K table (<= 0 selects 64).
func NewFPAttributor(s *schema.Schema, reg *metrics.Registry, rec *flight.Recorder, k int) *FPAttributor {
	if k <= 0 {
		k = 64
	}
	n := s.Len() + attrHeadroom
	a := &FPAttributor{
		schema:      s,
		rec:         rec,
		k:           k,
		top:         make([]fpEntry, 0, k),
		pos:         make(map[uint64]int, k),
		fpByAttr:    make([]atomic.Int64, n),
		delByAttr:   make([]atomic.Int64, n),
		fpCounters:  make([]*metrics.Counter, n),
		delCounters: make([]*metrics.Counter, n),
	}
	if reg != nil {
		a.evictions = reg.Counter("fp_attr_evictions")
		fpVec := reg.CounterVec("fp_attr_false_positives")
		delVec := reg.CounterVec("fp_attr_deliveries")
		for i, attr := range s.Attributes() {
			a.fpCounters[i] = fpVec.With(attr.Name)
			a.delCounters[i] = delVec.With(attr.Name)
		}
	}
	return a
}

// ObserveFP charges one false positive to the (attr, class, owner)
// triple. attr may be FPNoAttr for charges with no responsible
// attribute.
func (a *FPAttributor) ObserveFP(attr schema.AttrID, class FPClass, owner subid.BrokerID) {
	if a == nil {
		return
	}
	a.total.Add(1)
	if int(attr) < len(a.fpByAttr) {
		a.fpByAttr[attr].Add(1)
		if c := a.fpCounters[attr]; c != nil {
			c.Inc()
		}
	}
	key := FPKey{Attr: attr, Class: class, Owner: owner}
	admitted, evicted := false, false
	a.mu.Lock()
	if i, ok := a.pos[key.packed()]; ok {
		a.top[i].count++
	} else if len(a.top) < a.k {
		a.pos[key.packed()] = len(a.top)
		a.top = append(a.top, fpEntry{key: key, count: 1})
		admitted = true
	} else {
		// Space-saving eviction: the new triple takes the place of the
		// smallest count and inherits it plus one, with that count as its
		// documented error bound.
		at := 0
		for i := range a.top {
			if a.top[i].count < a.top[at].count {
				at = i
			}
		}
		least := a.top[at]
		delete(a.pos, least.key.packed())
		a.top[at] = fpEntry{key: key, count: least.count + 1, err: least.count}
		a.pos[key.packed()] = at
		evicted = true
	}
	a.mu.Unlock()
	if admitted {
		// First sighting of this triple while the table has room: journal it
		// so a post-mortem can line new over-approximation sources up against
		// churn and period boundaries. Once the table is full, triples swap
		// in and out on nearly every observation; those are only counted, or
		// they would push everything else out of the bounded journal.
		a.rec.Record(flight.EvFPAttribution, int(owner), int64(attr), int64(class), 0,
			a.attrName(attr)+" "+class.String())
	}
	if evicted && a.evictions != nil {
		a.evictions.Inc()
	}
}

// CreditDelivery credits one exact delivery to every attribute the
// matching subscription constrains (its id's c3 mask). Allocation-free:
// the mask words are walked bit by bit.
func (a *FPAttributor) CreditDelivery(attrs subid.Mask) {
	if a == nil {
		return
	}
	for wi, w := range attrs {
		for w != 0 {
			bit := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if bit < len(a.delByAttr) {
				a.delByAttr[bit].Add(1)
				if c := a.delCounters[bit]; c != nil {
					c.Inc()
				}
			}
		}
	}
}

// attrName resolves an attribute id to its schema name ("-" for the
// no-attribute sentinel, "attr(N)" for ids the schema no longer knows).
func (a *FPAttributor) attrName(attr schema.AttrID) string {
	if attr == FPNoAttr {
		return "-"
	}
	if at, ok := a.schema.Attr(attr); ok {
		return at.Name
	}
	return "attr(?)"
}

// FPAttribution is one top-K entry of the attribution report.
type FPAttribution struct {
	Attr     string `json:"attr"`
	AttrID   int    `json:"attr_id"`
	Class    string `json:"class"`
	Owner    int    `json:"owner"`
	Count    int64  `json:"count"`
	ErrBound int64  `json:"err_bound"`
}

// AttrPrecision is one attribute's live precision: of the events a
// summary admitted for subscriptions constraining this attribute, the
// fraction that were true deliveries.
type AttrPrecision struct {
	Attr      string  `json:"attr"`
	AttrID    int     `json:"attr_id"`
	Delivered int64   `json:"delivered"`
	FalsePos  int64   `json:"false_positives"`
	Precision float64 `json:"precision"`
}

// FPReport is the attribution snapshot surfaced by the health endpoint.
type FPReport struct {
	Total int64           `json:"total_false_positives"`
	TopK  []FPAttribution `json:"top_k"`
	Attrs []AttrPrecision `json:"attrs"`
}

// Report snapshots the attributor: the top n triples by charged count
// (descending; ties by attr, class, owner for determinism) and the
// per-attribute precision table. n <= 0 returns every tracked triple.
// A nil attributor reports an empty snapshot.
func (a *FPAttributor) Report(n int) *FPReport {
	r := &FPReport{}
	if a == nil {
		return r
	}
	r.Total = a.total.Load()
	a.mu.Lock()
	entries := make([]FPAttribution, 0, len(a.top))
	for _, e := range a.top {
		entries = append(entries, FPAttribution{
			Attr:     a.attrName(e.key.Attr),
			AttrID:   int(e.key.Attr),
			Class:    e.key.Class.String(),
			Owner:    int(e.key.Owner),
			Count:    e.count,
			ErrBound: e.err,
		})
	}
	a.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		if entries[i].AttrID != entries[j].AttrID {
			return entries[i].AttrID < entries[j].AttrID
		}
		if entries[i].Class != entries[j].Class {
			return entries[i].Class < entries[j].Class
		}
		return entries[i].Owner < entries[j].Owner
	})
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	r.TopK = entries
	for i, attr := range a.schema.Attributes() {
		if i >= len(a.fpByAttr) {
			break // beyond the tallied headroom
		}
		del, fp := a.delByAttr[i].Load(), a.fpByAttr[i].Load()
		if del == 0 && fp == 0 {
			continue
		}
		p := AttrPrecision{Attr: attr.Name, AttrID: i, Delivered: del, FalsePos: fp}
		p.Precision = float64(del) / float64(del+fp)
		r.Attrs = append(r.Attrs, p)
	}
	return r
}

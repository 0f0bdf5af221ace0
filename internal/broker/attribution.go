// False-positive attribution: when an event that some summary admitted
// reaches a broker's exact-match stage and no raw subscription matches,
// the miss is charged to the responsible (attribute, operator-class,
// owner-broker) triple. The paper's §5 precision metric becomes a live,
// per-row diagnostic: which attribute's summary rows over-approximate,
// under which operator class, owned by whom.
//
// The candidates are the ids the routing broker's match named for this
// owner (its deliver record, or the local hop's own match result) — the
// rows that actually admitted the event there. The owner's one exact pass
// over them keeps each live candidate's first failing constraint; a
// candidate with no live raw subscription behind it (snapshot lag, a
// stale remote row after an unsubscribe) is charged to the "stale" class.
// Counts are exact: each owner broker has its own row of counters, so a
// charge is one atomic add no other broker contends on, and a report sums
// the rows. On delivery-heavy workloads most deliver sends are false
// positives, so this is a hot path, not a rare one. Delivery credits on
// the hit branch are a handful of atomic adds.
package broker

import (
	"math/bits"
	"sort"
	"strconv"
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

// An owner's row of charge counters is indexed by (attribute slot,
// class). Attribute slots run over every id a schema can hold, plus one
// for FPNoAttr, in chunks of fpChunkAttrs slots allocated on the chunk's
// first charge: an attribute ExtendSchema adds later is counted like any
// other, and a row costs its 2 KB header plus 4 KB per chunk in use.
const (
	fpClasses    = int(FPClassStale) + 1
	fpChunkAttrs = 64
	fpNoAttrSlot = schema.MaxAttributes
	fpRowChunks  = fpNoAttrSlot/fpChunkAttrs + 1
	fpJournalCap = 64 // first sightings journaled per attributor
	attrHeadroom = 16 // delivery-tally slots beyond the construction-time schema
)

type (
	fpChunk [fpChunkAttrs * fpClasses]atomic.Int64
	fpRow   [fpRowChunks]atomic.Pointer[fpChunk]
)

// FPAttributor aggregates false-positive attributions network-wide:
// exact counts per (attribute, operator-class, owner) triple, plus
// per-attribute delivered/false-positive tallies from which per-attribute
// precision derives. Each owner broker has its own row of counters,
// allocated on its first charge, so a charge is one atomic add to a
// counter no other broker writes: brokers never contend on it, whichever
// bus worker runs them. One attributor is shared by every broker of a
// network; all methods are safe for concurrent use and a nil receiver is
// valid and records nothing.
type FPAttributor struct {
	schema    *schema.Schema
	rec       *flight.Recorder
	rows      []atomic.Pointer[fpRow] // by owner broker id
	journaled atomic.Int64            // first sightings offered to rec

	// Per-attribute delivery tallies, indexed by AttrID; fixed at
	// construction (schema size + headroom) so the credit path never grows
	// them. Attributes beyond the headroom are silently untallied.
	delByAttr []atomic.Int64
}

// NewFPAttributor builds an attributor over the schema's attributes for
// the owner brokers 0..brokers-1 (charges to other owners are dropped).
// reg and rec may be nil.
func NewFPAttributor(s *schema.Schema, reg *metrics.Registry, rec *flight.Recorder, brokers int) *FPAttributor {
	n := s.Len() + attrHeadroom
	a := &FPAttributor{
		schema:    s,
		rec:       rec,
		rows:      make([]atomic.Pointer[fpRow], max(brokers, 0)),
		delByAttr: make([]atomic.Int64, n),
	}
	if reg != nil {
		for i, attr := range s.Attributes() {
			id := schema.AttrID(i)
			reg.CounterFunc(metrics.Label("fp_attr_false_positives", attr.Name), func() int64 { return a.falsePositives(id) })
			reg.CounterFunc(metrics.Label("fp_attr_deliveries", attr.Name), a.delByAttr[i].Load)
		}
	}
	return a
}

// fpSlot maps an attribute to its row slot; false for ids no schema holds.
func fpSlot(attr schema.AttrID) (int, bool) {
	if attr == FPNoAttr {
		return fpNoAttrSlot, true
	}
	return int(attr), int(attr) < fpNoAttrSlot
}

// ObserveFP charges one false positive to the (attr, class, owner)
// triple. attr may be FPNoAttr for charges with no responsible
// attribute. Once the owner's row and chunk exist, the charge is one
// atomic add; the first sighting of a triple is journaled, up to
// fpJournalCap per attributor.
func (a *FPAttributor) ObserveFP(attr schema.AttrID, class FPClass, owner subid.BrokerID) {
	slot, ok := fpSlot(attr)
	if a == nil || !ok || int(owner) >= len(a.rows) || int(class) >= fpClasses {
		return
	}
	row := a.rows[owner].Load()
	if row == nil {
		row = loadOrStore(&a.rows[owner])
	}
	chunk := row[slot/fpChunkAttrs].Load()
	if chunk == nil {
		chunk = loadOrStore(&row[slot/fpChunkAttrs])
	}
	if chunk[slot%fpChunkAttrs*fpClasses+int(class)].Add(1) == 1 && a.rec != nil && a.journaled.Add(1) <= fpJournalCap {
		// First sighting: journal it so a post-mortem can line new
		// over-approximation sources up against churn and period
		// boundaries. Capped, so a wide triple mix cannot flush the
		// bounded flight ring.
		a.rec.Record(flight.EvFPAttribution, int(owner), int64(attr), int64(class), 0,
			a.attrName(attr)+" "+class.String())
	}
}

// loadOrStore returns *p, installing a zero T first if it is nil. Of
// concurrent installers one wins and the others use its value, so no
// charge lands in a discarded table.
func loadOrStore[T any](p *atomic.Pointer[T]) *T {
	p.CompareAndSwap(nil, new(T))
	return p.Load()
}

// eachCharge calls fn for every nonzero (attr, class, owner) count.
func (a *FPAttributor) eachCharge(fn func(attr schema.AttrID, class FPClass, owner subid.BrokerID, n int64)) {
	for owner := range a.rows {
		row := a.rows[owner].Load()
		if row == nil {
			continue
		}
		for ci := range row {
			chunk := row[ci].Load()
			if chunk == nil {
				continue
			}
			for i := range chunk {
				if n := chunk[i].Load(); n != 0 {
					slot := ci*fpChunkAttrs + i/fpClasses
					attr := schema.AttrID(slot)
					if slot == fpNoAttrSlot {
						attr = FPNoAttr
					}
					fn(attr, FPClass(i%fpClasses), subid.BrokerID(owner), n)
				}
			}
		}
	}
}

// falsePositives sums the charges to one attribute over owners and
// classes.
func (a *FPAttributor) falsePositives(attr schema.AttrID) int64 {
	slot, _ := fpSlot(attr)
	var sum int64
	for owner := range a.rows {
		row := a.rows[owner].Load()
		if row == nil {
			continue
		}
		chunk := row[slot/fpChunkAttrs].Load()
		if chunk == nil {
			continue
		}
		for c := range fpClasses {
			sum += chunk[slot%fpChunkAttrs*fpClasses+c].Load()
		}
	}
	return sum
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
	return "attr(" + strconv.Itoa(int(attr)) + ")"
}

// FPAttribution is one top-K entry of the attribution report. Counts are
// exact: ErrBound is always 0, kept for readers of the report's JSON.
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
// per-attribute precision table. n <= 0 returns every charged triple.
// A nil attributor reports an empty snapshot.
func (a *FPAttributor) Report(n int) *FPReport {
	r := &FPReport{}
	if a == nil {
		return r
	}
	attrs := a.schema.Attributes()
	fpByAttr := make([]int64, len(attrs))
	entries := []FPAttribution{}
	a.eachCharge(func(attr schema.AttrID, class FPClass, owner subid.BrokerID, count int64) {
		r.Total += count
		if int(attr) < len(fpByAttr) {
			fpByAttr[attr] += count
		}
		entries = append(entries, FPAttribution{
			Attr:   a.attrName(attr),
			AttrID: int(attr),
			Class:  class.String(),
			Owner:  int(owner),
			Count:  count,
		})
	})
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
	for i, attr := range attrs {
		var del int64
		if i < len(a.delByAttr) {
			del = a.delByAttr[i].Load()
		}
		fp := fpByAttr[i]
		if del == 0 && fp == 0 {
			continue
		}
		p := AttrPrecision{Attr: attr.Name, AttrID: i, Delivered: del, FalsePos: fp}
		p.Precision = float64(del) / float64(del+fp)
		r.Attrs = append(r.Attrs, p)
	}
	return r
}

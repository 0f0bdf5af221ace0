// Package workload generates the synthetic subscriptions and events of the
// paper's evaluation (Section 5.2, Table 2). No public trace exists for
// the original experiments, so this generator reproduces their documented
// statistical structure:
//
//   - n_t attributes total, 40% arithmetic / 60% string;
//   - the "average" subscription and event carry n_t/2 attributes;
//   - average subscription/event size ≈ 50 bytes (string values s_sv = 10);
//   - a tunable subsumption probability: a subsumed arithmetic constraint
//     falls into one of the attribute's n_sr canonical sub-ranges, a
//     subsumed string constraint is covered by one of the attribute's
//     canonical patterns; non-subsumed constraints are fresh distinct
//     equality values outside the ranges/patterns;
//   - event popularity: the fraction of brokers an event matches, with the
//     matched brokers chosen randomly per event.
//
// All output is deterministic for a given Config.Seed.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/subsum/subsum/internal/schema"
)

// Config parametrizes the generator. DefaultConfig returns the paper's
// Table 2 values.
type Config struct {
	NumAttrs      int     // n_t: total attributes in the schema
	ArithFraction float64 // fraction of arithmetic attributes (paper: 0.4)
	AttrsPerSub   int     // constrained attributes per subscription (n_t/2)
	AttrsPerEvent int     // attributes per event (n_t/2)
	Subsumption   float64 // probability a constraint is subsumed [0,1]
	NumRanges     int     // n_sr: canonical sub-ranges per arithmetic attribute
	NumPatterns   int     // canonical covering patterns per string attribute
	StringLen     int     // s_sv: string value size in bytes
	Seed          int64

	// Region shifts the canonical sub-ranges and prefixes into a
	// region-private band, modelling geographically correlated interest:
	// generators with different regions produce subscriptions (and
	// events) over disjoint value populations, while region 0 is
	// byte-identical to the historical generator. All regions share one
	// schema shape, so summaries from different regions still merge. The
	// overlay-scaling experiment sets it per transit-stub region, so each
	// region's brokers share interests and events mostly match near home.
	Region int
}

// DefaultConfig returns the evaluation parameters of Table 2.
func DefaultConfig() Config {
	return Config{
		NumAttrs:      10,
		ArithFraction: 0.4,
		AttrsPerSub:   5,
		AttrsPerEvent: 5,
		Subsumption:   0.5,
		NumRanges:     2,
		NumPatterns:   2,
		StringLen:     10,
		Seed:          1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumAttrs < 1:
		return fmt.Errorf("workload: NumAttrs must be positive")
	case c.ArithFraction < 0 || c.ArithFraction > 1:
		return fmt.Errorf("workload: ArithFraction out of [0,1]")
	case c.AttrsPerSub < 1 || c.AttrsPerSub > c.NumAttrs:
		return fmt.Errorf("workload: AttrsPerSub out of [1,NumAttrs]")
	case c.AttrsPerEvent < 1 || c.AttrsPerEvent > c.NumAttrs:
		return fmt.Errorf("workload: AttrsPerEvent out of [1,NumAttrs]")
	case c.Subsumption < 0 || c.Subsumption > 1:
		return fmt.Errorf("workload: Subsumption out of [0,1]")
	case c.NumRanges < 1 || c.NumPatterns < 1:
		return fmt.Errorf("workload: NumRanges and NumPatterns must be positive")
	case c.StringLen < 2:
		return fmt.Errorf("workload: StringLen must be at least 2")
	case c.Region < 0:
		return fmt.Errorf("workload: Region must be non-negative")
	}
	return nil
}

// anchorRange is a canonical sub-range of an arithmetic attribute; all
// subsumed constraints on the attribute fall inside one of these.
type anchorRange struct {
	lo, hi float64
}

// Generator produces subscriptions and events over its schema.
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	schema   *schema.Schema
	arith    []schema.AttrID // arithmetic attribute ids
	strs     []schema.AttrID // string attribute ids
	ranges   map[schema.AttrID][]anchorRange
	prefixes map[schema.AttrID][]string // canonical covering prefixes
	fresh    int                        // counter for distinct non-subsumed values
	anchors  []anchor                   // templates for AnchoredSubscription
}

// NewGenerator builds a generator (and its schema) from the config.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		ranges:   make(map[schema.AttrID][]anchorRange),
		prefixes: make(map[schema.AttrID][]string),
	}
	nArith := int(float64(cfg.NumAttrs)*cfg.ArithFraction + 0.5)
	attrs := make([]schema.Attribute, cfg.NumAttrs)
	for i := range attrs {
		if i < nArith {
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("num%02d", i), Type: schema.TypeFloat}
		} else {
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("str%02d", i), Type: schema.TypeString}
		}
	}
	s, err := schema.New(attrs...)
	if err != nil {
		return nil, err
	}
	g.schema = s
	for i := 0; i < cfg.NumAttrs; i++ {
		id := schema.AttrID(i)
		if i < nArith {
			g.arith = append(g.arith, id)
			// Canonical sub-ranges: [k·100, k·100+50) per attribute, offset
			// by attribute so ranges differ across attributes.
			rs := make([]anchorRange, cfg.NumRanges)
			for k := range rs {
				// Region r>0 shifts every range into the band
				// [r·100000, (r+1)·100000), keeping regions disjoint.
				base := float64(cfg.Region*100000 + i*1000 + k*100)
				rs[k] = anchorRange{lo: base, hi: base + 50}
			}
			g.ranges[id] = rs
		} else {
			g.strs = append(g.strs, id)
			ps := make([]string, cfg.NumPatterns)
			for k := range ps {
				if cfg.Region > 0 {
					// Region-tagged prefix: regions diverge within the
					// first three bytes.
					ps[k] = fmt.Sprintf("r%02da%02dp%02d", cfg.Region%100, i, k)
				} else {
					ps[k] = fmt.Sprintf("a%02dp%02d", i, k) // 6-byte canonical prefix
				}
			}
			g.prefixes[id] = ps
		}
	}
	return g, nil
}

// Schema returns the generated schema (40% arithmetic, 60% string for the
// default config).
func (g *Generator) Schema() *schema.Schema { return g.schema }

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Subscription generates one subscription with AttrsPerSub distinct
// attributes, honouring the configured subsumption probability per
// constraint.
func (g *Generator) Subscription() *schema.Subscription {
	return g.SubscriptionWithSubsumption(g.cfg.Subsumption)
}

// SubscriptionWithSubsumption is Subscription with an explicit subsumption
// probability (used when sweeping Figure 9's x-axis).
func (g *Generator) SubscriptionWithSubsumption(p float64) *schema.Subscription {
	// Permute only the attributes that existed at construction: the shared
	// schema may since have evolved (Section 6), and the generator's
	// canonical ranges/prefixes cover the original n_t attributes.
	perm := g.rng.Perm(g.cfg.NumAttrs)
	var cs []schema.Constraint
	for _, ai := range perm[:g.cfg.AttrsPerSub] {
		a := schema.AttrID(ai)
		if g.schema.TypeOf(a).Arithmetic() {
			cs = append(cs, g.arithConstraints(a, p)...)
		} else {
			cs = append(cs, g.stringConstraint(a, p))
		}
	}
	sub, err := schema.NewSubscription(g.schema, cs...)
	if err != nil {
		panic(fmt.Sprintf("workload: generated invalid subscription: %v", err))
	}
	return sub
}

// arithConstraints yields the constraint(s) for one arithmetic attribute:
// subsumed → a range pair (>lo, <hi) inside one of the canonical
// sub-ranges; non-subsumed → a fresh equality value outside all ranges.
func (g *Generator) arithConstraints(a schema.AttrID, p float64) []schema.Constraint {
	if g.rng.Float64() < p {
		// Exactly one of the n_sr canonical sub-ranges: the paper's model
		// keeps AACSSR at n_sr rows per attribute because "all subsumed
		// values fall into the n_sr ranges of the attribute".
		r := g.ranges[a][g.rng.Intn(len(g.ranges[a]))]
		return []schema.Constraint{
			{Attr: a, Op: schema.OpGE, Value: schema.FloatValue(r.lo)},
			{Attr: a, Op: schema.OpLE, Value: schema.FloatValue(r.hi)},
		}
	}
	g.fresh++
	// Distinct equality value far outside every canonical range; the
	// region offset keeps fresh values region-private too.
	v := 1e7 + float64(g.cfg.Region)*1e6 + float64(g.fresh)
	return []schema.Constraint{{Attr: a, Op: schema.OpEQ, Value: schema.FloatValue(v)}}
}

// stringConstraint yields the constraint for one string attribute:
// subsumed → an equality value extending one of the canonical prefixes
// (covered by the prefix pattern, which is also occasionally emitted
// itself); non-subsumed → a fresh distinct equality value.
func (g *Generator) stringConstraint(a schema.AttrID, p float64) schema.Constraint {
	if g.rng.Float64() < p {
		pre := g.prefixes[a][g.rng.Intn(len(g.prefixes[a]))]
		if g.rng.Float64() < 0.2 {
			// Emit the covering prefix constraint itself.
			return schema.Constraint{Attr: a, Op: schema.OpPrefix, Value: schema.StringValue(pre)}
		}
		return schema.Constraint{Attr: a, Op: schema.OpEQ, Value: schema.StringValue(g.padWord(pre))}
	}
	g.fresh++
	word := fmt.Sprintf("z%07d", g.fresh)
	if g.cfg.Region > 0 {
		// Region-tagged so fresh values never collide across regions.
		word = fmt.Sprintf("z%02d%05d", g.cfg.Region%100, g.fresh)
	}
	return schema.Constraint{Attr: a, Op: schema.OpEQ, Value: schema.StringValue(g.padWord(word))}
}

// padWord extends w with random lower-case letters to StringLen bytes.
func (g *Generator) padWord(w string) string {
	b := []byte(w)
	for len(b) < g.cfg.StringLen {
		b = append(b, byte('a'+g.rng.Intn(26)))
	}
	return string(b[:g.cfg.StringLen])
}

// Subscriptions generates a batch of n subscriptions.
func (g *Generator) Subscriptions(n int) []*schema.Subscription {
	out := make([]*schema.Subscription, n)
	for i := range out {
		out[i] = g.Subscription()
	}
	return out
}

// Event generates one event with AttrsPerEvent attributes. With
// probability hitRate each value is drawn from inside a canonical
// sub-range / under a canonical prefix (so it can match subsumed
// subscriptions); otherwise it is a miss value.
func (g *Generator) Event(hitRate float64) *schema.Event {
	perm := g.rng.Perm(g.cfg.NumAttrs) // see SubscriptionWithSubsumption

	fields := make([]schema.Field, 0, g.cfg.AttrsPerEvent)
	for _, ai := range perm[:g.cfg.AttrsPerEvent] {
		a := schema.AttrID(ai)
		var v schema.Value
		if g.schema.TypeOf(a).Arithmetic() {
			if g.rng.Float64() < hitRate {
				r := g.ranges[a][g.rng.Intn(len(g.ranges[a]))]
				v = schema.FloatValue(r.lo + (r.hi-r.lo)*g.rng.Float64())
			} else {
				v = schema.FloatValue(-1e6 - float64(g.rng.Intn(1000)))
			}
		} else {
			if g.rng.Float64() < hitRate {
				pre := g.prefixes[a][g.rng.Intn(len(g.prefixes[a]))]
				v = schema.StringValue(g.padWord(pre))
			} else {
				v = schema.StringValue(g.padWord("miss"))
			}
		}
		fields = append(fields, schema.Field{Attr: a, Value: v})
	}
	e, err := schema.EventFromFields(g.schema, fields)
	if err != nil {
		panic(fmt.Sprintf("workload: generated invalid event: %v", err))
	}
	return e
}

// anchor is a template subscription whose specializations it subsumes.
type anchor struct {
	sub   *schema.Subscription
	attrs []schema.AttrID
}

// ensureAnchors lazily builds the anchor pool used by
// AnchoredSubscription: one template per canonical range/prefix
// combination slot.
func (g *Generator) ensureAnchors() {
	if len(g.anchors) > 0 {
		return
	}
	const pool = 8
	for k := 0; k < pool; k++ {
		perm := g.rng.Perm(g.cfg.NumAttrs)
		var cs []schema.Constraint
		var attrs []schema.AttrID
		for _, ai := range perm[:g.cfg.AttrsPerSub] {
			a := schema.AttrID(ai)
			attrs = append(attrs, a)
			if g.schema.TypeOf(a).Arithmetic() {
				r := g.ranges[a][g.rng.Intn(len(g.ranges[a]))]
				cs = append(cs,
					schema.Constraint{Attr: a, Op: schema.OpGE, Value: schema.FloatValue(r.lo)},
					schema.Constraint{Attr: a, Op: schema.OpLE, Value: schema.FloatValue(r.hi)})
			} else {
				pre := g.prefixes[a][g.rng.Intn(len(g.prefixes[a]))]
				cs = append(cs, schema.Constraint{Attr: a, Op: schema.OpPrefix, Value: schema.StringValue(pre)})
			}
		}
		sub, err := schema.NewSubscription(g.schema, cs...)
		if err != nil {
			panic(fmt.Sprintf("workload: bad anchor: %v", err))
		}
		g.anchors = append(g.anchors, anchor{sub: sub, attrs: attrs})
	}
}

// AnchoredSubscription generates a subscription with whole-subscription
// subsumption structure: with probability p it is either one of the
// generator's anchor templates (25%) or a strict specialization of one
// (75%) — specializations are genuinely subsumed by their anchor, which
// Siena's real subsumption check detects. With probability 1−p it is a
// fresh, distinct subscription that nothing subsumes.
func (g *Generator) AnchoredSubscription(p float64) *schema.Subscription {
	g.ensureAnchors()
	if g.rng.Float64() >= p {
		return g.SubscriptionWithSubsumption(0)
	}
	a := g.anchors[g.rng.Intn(len(g.anchors))]
	if g.rng.Float64() < 0.25 {
		return a.sub
	}
	var cs []schema.Constraint
	for _, attr := range a.attrs {
		if g.schema.TypeOf(attr).Arithmetic() {
			// The anchor's range for attr, narrowed to a quantized quarter
			// sub-range (so it stays within the anchor's bounds).
			var lo, hi float64
			for _, c := range a.sub.Constraints {
				if c.Attr != attr {
					continue
				}
				if c.Op == schema.OpGE {
					lo = c.Value.Num
				} else {
					hi = c.Value.Num
				}
			}
			span := (hi - lo) / 4
			qlo := g.rng.Intn(4)
			qhi := qlo + 1 + g.rng.Intn(4-qlo)
			cs = append(cs,
				schema.Constraint{Attr: attr, Op: schema.OpGE, Value: schema.FloatValue(lo + span*float64(qlo))},
				schema.Constraint{Attr: attr, Op: schema.OpLE, Value: schema.FloatValue(lo + span*float64(qhi))})
		} else {
			// An equality value under the anchor's prefix.
			var pre string
			for _, c := range a.sub.Constraints {
				if c.Attr == attr {
					pre = c.Value.Str
				}
			}
			cs = append(cs, schema.Constraint{Attr: attr, Op: schema.OpEQ, Value: schema.StringValue(g.padWord(pre))})
		}
	}
	sub, err := schema.NewSubscription(g.schema, cs...)
	if err != nil {
		panic(fmt.Sprintf("workload: bad specialization: %v", err))
	}
	return sub
}

// MatchedBrokers draws the random matched-broker set for one event in the
// Figure 10 experiment: each event matches ⌈popularity·n⌉ distinct
// brokers, chosen uniformly ("the 'matched' brokers are randomly chosen
// for every event").
func (g *Generator) MatchedBrokers(popularity float64, n int) []int {
	k := int(popularity*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	perm := g.rng.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

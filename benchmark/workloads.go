package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// seqAttr names the unconstrained int attribute the harness adds to the
// schema and stamps on every pool event, so a delivery maps back to the
// publish that caused it.
const seqAttr = "bench_seq"

// spec is one workload's frozen shape. Everything random in it derives
// from the -seed argument; the program under test receives only the
// generated subscriptions and events.
type spec struct {
	name string
	why  string

	topo          func(seed int64) *topology.Graph
	subsPerBroker int
	gen           func() workload.Config // Seed is filled in from -seed
	hitRate       float64
	// seededHits is the share of pool events built to satisfy one randomly
	// chosen subscription, for streams that would otherwise deliver too
	// rarely to support a delivery-latency percentile.
	seededHits float64

	fullSyncEvery int
	churn         bool // a writer runs churnShape periods beside the publisher
	rampPeriods   int  // churn periods run inside set-up
	tcp           bool // drive through wire.Server on loopback

	// generators is how many goroutines or connections generate load at
	// once; the run is refused when it exceeds the host's CPUs.
	generators int
}

func fanoutConfig() workload.Config {
	c := workload.DefaultConfig()
	c.AttrsPerEvent = 10
	c.AttrsPerSub = 3
	return c
}

func cw24(int64) *topology.Graph { return topology.CW24() }

// churnShape is the subscribe/unsubscribe stream of churn-mixed-cw24 (and
// of the five-period burst that prices mutation on the other workloads):
// 240 births per period, each living five periods on average, so about
// 1200 churning subscriptions beside the 2400 that never change.
var churnShape = workload.ChurnConfig{Rate: 240, MeanLifetime: 5, Dist: workload.LifetimeGeometric}

var specs = []spec{
	{
		name: "fanout-cw24",
		why:  "CW24, 2400 subs of 3 constraints, 10-attribute events: ~3.5 deliveries and ~14 deliver-sends per event, so owner re-match, deliver multicast and event encode/decode do most of the work.",
		topo: cw24, subsPerBroker: 100, gen: fanoutConfig, hitRate: 0.9, generators: 1,
	},
	{
		name: "match-cw24-24k",
		why:  "CW24, 24000 subs, paper Table 2 stream (a quarter of the events seeded to hit one subscription): Algorithm 1 over the hub's 24000 merged subs is most of each event; delivery does little.",
		topo: cw24, subsPerBroker: 1000, gen: workload.DefaultConfig, hitRate: 0.9, seededHits: 0.25, generators: 1,
	},
	{
		name:          "walk-ts256",
		why:           "256-broker transit-stub overlay after one delta period (partial knowledge): tens of hops per event, so per-hop mailbox hand-off, mask and event codec dominate and matcher work is small.",
		topo:          func(int64) *topology.Graph { return topology.TransitStub(256, 256) },
		subsPerBroker: 4, gen: fanoutConfig, hitRate: 0.9, generators: 1,
	},
	{
		name: "churn-mixed-cw24",
		why:  "fanout-cw24 population plus 240 births and deaths per 200 ms propagation period (full sync every 4th), written beside a 1-in-flight publisher: mutation and read paths share the brokers.",
		topo: cw24, subsPerBroker: 100, gen: fanoutConfig, hitRate: 0.9,
		fullSyncEvery: 4, rampPeriods: 20, churn: true, generators: 2,
	},
	{
		name: "tcp-fanout-cw24",
		why:  "fanout-cw24 through wire.Server on loopback TCP, one subscriber and one publisher connection, synchronous publish: JSON, event text parsing, global flush and per-delivery pushes do most of the work.",
		topo: cw24, subsPerBroker: 100, gen: fanoutConfig, hitRate: 0.9, tcp: true, generators: 2,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// sizing scales a workload down for tests; the zero value is full size.
type sizing struct {
	pool   int // events in the pool (default 2000)
	shrink int // divide subscriptions per broker by this (default 1)
}

func (z sizing) poolSize() int {
	if z.pool > 0 {
		return z.pool
	}
	return 2000
}

// inputs is everything generated from the seed before the engine exists.
type inputs struct {
	sp     spec
	seed   int64
	graph  *topology.Graph
	schema *schema.Schema // the harness's own copy, bench_seq included
	seq    schema.AttrID

	subs   []*schema.Subscription // subs[i] lives at broker i % n
	pool   []*schema.Event        // pool[k] carries bench_seq = k
	origin []topology.NodeID      // pool[k] is published at origin[k]
	// oracle[k] lists, ascending, the subs indexes pool[k] must be
	// delivered to: Subscription.Matches over the raw list, nothing else.
	oracle [][]int32
}

// engineConfig returns the generator configuration for the engine's own
// schema (built fresh per set-up so that ExtendSchema has work to do).
func (in *inputs) genConfig() workload.Config {
	c := in.sp.gen()
	c.Seed = in.seed
	return c
}

// newChurn returns the workload's churn stream from its start; every call
// yields the same stream, so repeated set-ups ramp identically.
func (in *inputs) newChurn() (*workload.Churn, error) {
	c := in.genConfig()
	c.Seed = in.seed + 7919
	g, err := workload.NewGenerator(c)
	if err != nil {
		return nil, err
	}
	cc := churnShape
	cc.Seed = in.seed + 104729
	return workload.NewChurn(g, cc)
}

func generate(sp spec, seed int64, z sizing) (*inputs, error) {
	in := &inputs{sp: sp, seed: seed, graph: sp.topo(seed)}
	gen, err := workload.NewGenerator(in.genConfig())
	if err != nil {
		return nil, err
	}
	in.schema = gen.Schema()
	if in.seq, err = in.schema.Add(seqAttr, schema.TypeInt); err != nil {
		return nil, err
	}
	n := in.graph.Len()
	perBroker := max(1, sp.subsPerBroker/max(1, z.shrink))
	in.subs = gen.Subscriptions(n * perBroker)

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in.pool = make([]*schema.Event, z.poolSize())
	in.origin = make([]topology.NodeID, len(in.pool))
	for k := range in.pool {
		var fields []schema.Field
		if rng.Float64() < sp.seededHits {
			fields = satisfying(in.subs[rng.Intn(len(in.subs))], rng)
		} else {
			fields = gen.Event(sp.hitRate).Fields()
		}
		fields = append(append([]schema.Field(nil), fields...),
			schema.Field{Attr: in.seq, Value: schema.IntValue(int64(k))})
		if in.pool[k], err = schema.EventFromFields(in.schema, fields); err != nil {
			return nil, err
		}
		in.origin[k] = topology.NodeID(k % n)
	}
	return in, nil
}

// satisfying builds the fields of an event that matches sub and carries
// exactly sub's attributes. It knows the operators the workload generator
// emits (=, >=, <=, prefix) and panics on any other, which would be a
// change to the generator this harness has to follow.
func satisfying(sub *schema.Subscription, rng *rand.Rand) []schema.Field {
	type bounds struct {
		lo, hi float64
		eq     *schema.Value
	}
	by := map[schema.AttrID]*bounds{}
	var attrs []schema.AttrID
	for _, c := range sub.Constraints {
		b := by[c.Attr]
		if b == nil {
			b = &bounds{lo: -1e9, hi: 1e9}
			by[c.Attr] = b
			attrs = append(attrs, c.Attr)
		}
		switch v := c.Value; c.Op {
		case schema.OpEQ:
			b.eq = &v
		case schema.OpGE:
			b.lo = v.Num
		case schema.OpLE:
			b.hi = v.Num
		case schema.OpPrefix:
			pad := []byte(v.Str)
			for len(pad) < 10 {
				pad = append(pad, byte('a'+rng.Intn(26)))
			}
			s := schema.StringValue(string(pad))
			b.eq = &s
		default:
			panic(fmt.Sprintf("benchmark: generator emitted operator %v", c.Op))
		}
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	fields := make([]schema.Field, 0, len(attrs))
	for _, a := range attrs {
		b := by[a]
		v := schema.FloatValue(b.lo + (b.hi-b.lo)*rng.Float64())
		if b.eq != nil {
			v = *b.eq
		}
		fields = append(fields, schema.Field{Attr: a, Value: v})
	}
	return fields
}

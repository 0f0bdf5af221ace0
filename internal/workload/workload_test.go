package workload

import (
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
)

func mustGen(t testing.TB, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumAttrs = 0 },
		func(c *Config) { c.ArithFraction = 1.5 },
		func(c *Config) { c.AttrsPerSub = 0 },
		func(c *Config) { c.AttrsPerSub = c.NumAttrs + 1 },
		func(c *Config) { c.AttrsPerEvent = 0 },
		func(c *Config) { c.Subsumption = -0.1 },
		func(c *Config) { c.NumRanges = 0 },
		func(c *Config) { c.StringLen = 1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSchemaShape(t *testing.T) {
	g := mustGen(t, DefaultConfig())
	s := g.Schema()
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	// 40% arithmetic / 60% string.
	if g.NumArithmetic() != 4 || g.NumString() != 6 {
		t.Fatalf("split = %d/%d", g.NumArithmetic(), g.NumString())
	}
}

func TestSubscriptionShapeAndSize(t *testing.T) {
	g := mustGen(t, DefaultConfig())
	totalSize := 0
	n := 500
	for i := 0; i < n; i++ {
		sub := g.Subscription()
		if got := sub.NumAttrs(); got != 5 {
			t.Fatalf("NumAttrs = %d, want 5 (n_t/2)", got)
		}
		totalSize += sub.WireSize()
	}
	avg := float64(totalSize) / float64(n)
	// Paper: average subscription size ≈ 50 bytes.
	if avg < 35 || avg > 70 {
		t.Fatalf("average subscription size = %.1f bytes, want ≈ 50", avg)
	}
}

func TestEventShapeAndSize(t *testing.T) {
	g := mustGen(t, DefaultConfig())
	totalSize := 0
	n := 500
	for i := 0; i < n; i++ {
		e := g.Event(0.5)
		if e.Len() != 5 {
			t.Fatalf("event Len = %d, want 5", e.Len())
		}
		totalSize += e.WireSize()
	}
	avg := float64(totalSize) / float64(n)
	if avg < 30 || avg > 70 {
		t.Fatalf("average event size = %.1f bytes, want ≈ 50", avg)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := mustGen(t, DefaultConfig())
	b := mustGen(t, DefaultConfig())
	s := a.Schema()
	for i := 0; i < 50; i++ {
		if a.Subscription().Format(s) != b.Subscription().Format(s) {
			t.Fatal("same seed produced different subscriptions")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	c := mustGen(t, cfg)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Subscription().Format(s) == c.Subscription().Format(s) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSubsumptionControlsSummaryGrowth is the key property the generator
// must deliver for Figures 8 and 11: at high subsumption probability the
// per-attribute summaries stay near their canonical sizes (n_sr ranges),
// while at low subsumption the AACSE equality rows grow with the number of
// subscriptions.
func TestSubsumptionControlsSummaryGrowth(t *testing.T) {
	build := func(p float64) summary.Stats {
		cfg := DefaultConfig()
		cfg.Subsumption = p
		g := mustGen(t, cfg)
		sm := summary.New(g.Schema(), interval.Lossy)
		for i := 0; i < 500; i++ {
			id := subid.ID{Broker: 1, Local: subid.LocalID(i)}
			if err := sm.Insert(id, g.Subscription()); err != nil {
				t.Fatal(err)
			}
		}
		return sm.Stats()
	}
	low := build(0.1)
	high := build(0.9)
	// High subsumption: far fewer equality rows and SACS rows.
	if high.Arithmetic.NumEq*3 > low.Arithmetic.NumEq {
		t.Fatalf("AACSE rows: high=%d low=%d — subsumption knob ineffective",
			high.Arithmetic.NumEq, low.Arithmetic.NumEq)
	}
	if high.Strings.NumRows*3 > low.Strings.NumRows {
		t.Fatalf("SACS rows: high=%d low=%d — subsumption knob ineffective",
			high.Strings.NumRows, low.Strings.NumRows)
	}
	// Range rows stay at the canonical structure: at most n_sr rows per
	// arithmetic attribute regardless of subscription count.
	if high.Arithmetic.NumRanges > 2*4 {
		t.Fatalf("range rows at high subsumption = %d, want ≤ n_sr × n_as = 8", high.Arithmetic.NumRanges)
	}
}

// TestSubsumedConstraintsAreActuallySubsumed: with p=1 every generated
// arithmetic constraint pair is covered by a canonical range and every
// string constraint by a canonical prefix; a summary built from only the
// canonical anchors plus the subscriptions keeps SACS rows at the anchor
// count.
func TestSubsumedConstraintsAreActuallySubsumed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Subsumption = 1
	g := mustGen(t, cfg)
	sm := summary.New(g.Schema(), interval.Lossy)
	for i := 0; i < 300; i++ {
		id := subid.ID{Broker: 0, Local: subid.LocalID(i)}
		if err := sm.Insert(id, g.Subscription()); err != nil {
			t.Fatal(err)
		}
	}
	st := sm.Stats()
	if st.Arithmetic.NumEq != 0 {
		t.Fatalf("AACSE rows = %d, want 0 at p=1", st.Arithmetic.NumEq)
	}
	// Each string attribute has at most NumPatterns canonical prefixes;
	// equality values under a prefix collapse only once the prefix itself
	// has been emitted, so rows stay small but can exceed NumPatterns.
	if st.Strings.NumRows > 6*40 {
		t.Fatalf("SACS rows = %d, want far fewer than one per subscription", st.Strings.NumRows)
	}
}

func TestEventsMatchSubsumedSubscriptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Subsumption = 1
	g := mustGen(t, cfg)
	sm := summary.New(g.Schema(), interval.Lossy)
	subs := make([]*schema.Subscription, 200)
	for i := range subs {
		subs[i] = g.Subscription()
		id := subid.ID{Broker: 0, Local: subid.LocalID(i)}
		if err := sm.Insert(id, subs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Hit-rate-1 events land inside canonical ranges/prefixes; across many
	// events at least some must match some subscription end to end.
	matches := 0
	for i := 0; i < 500; i++ {
		e := g.Event(1)
		matches += len(sm.MatchKeys(e))
	}
	if matches == 0 {
		t.Fatal("no event matched any subscription; generator misaligned")
	}
}

func TestMatchedBrokers(t *testing.T) {
	g := mustGen(t, DefaultConfig())
	for _, pop := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		got := g.MatchedBrokers(pop, 24)
		want := int(pop*24 + 0.5)
		if want < 1 {
			want = 1
		}
		if len(got) != want {
			t.Fatalf("popularity %.2f: %d brokers, want %d", pop, len(got), want)
		}
		seen := make(map[int]bool)
		for _, b := range got {
			if b < 0 || b >= 24 {
				t.Fatalf("broker %d out of range", b)
			}
			if seen[b] {
				t.Fatalf("duplicate broker %d", b)
			}
			seen[b] = true
		}
	}
	// Extremes clamp.
	if len(g.MatchedBrokers(0, 24)) != 1 {
		t.Fatal("popularity 0 should clamp to 1 broker")
	}
	if len(g.MatchedBrokers(2, 24)) != 24 {
		t.Fatal("popularity >1 should clamp to all brokers")
	}
}

// TestGeneratorSurvivesSchemaEvolution: extending the shared schema after
// construction (Section 6) must not break generation — the generator keeps
// drawing from its original attribute set.
func TestGeneratorSurvivesSchemaEvolution(t *testing.T) {
	g := mustGen(t, DefaultConfig())
	if _, err := g.Schema().Add("evolved", schema.TypeFloat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sub := g.Subscription()
		if sub.NumAttrs() != 5 {
			t.Fatalf("NumAttrs = %d", sub.NumAttrs())
		}
		ev := g.Event(0.5)
		if ev.Len() != 5 {
			t.Fatalf("event Len = %d", ev.Len())
		}
		_ = g.AnchoredSubscription(0.5)
	}
}

// NumArithmetic and NumString report the attribute split.
func (g *Generator) NumArithmetic() int { return len(g.arith) }

// NumString reports the number of string attributes.
func (g *Generator) NumString() int { return len(g.strs) }

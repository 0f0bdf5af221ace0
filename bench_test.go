// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark family per figure; see experiments/ for the harness and
// EXPERIMENTS.md for paper-versus-measured numbers), plus microbenchmarks
// of the core operations the Section 5.2.4 analysis reasons about:
// Algorithm 1 matching, summary insertion/merging/encoding, Algorithm 2
// propagation, and Algorithm 3 routing.
//
// Run with: go test -bench=. -benchmem
package subsum_test

import (
	"fmt"
	"testing"

	subsum "github.com/subsum/subsum"
	"github.com/subsum/subsum/experiments"
)

// benchConfig keeps the figure benchmarks fast while preserving the full
// pipeline; use cmd/subsum-bench for the paper-scale sweeps.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Sigmas = []int{10, 100}
	cfg.Subsumptions = []float64{0.10, 0.90}
	cfg.Popularities = []float64{0.10, 0.90}
	cfg.EventsPerBroker = 100
	return cfg
}

func BenchmarkFig8Bandwidth(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9PropagationHops(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10EventRouting(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Storage(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationForwarding(b *testing.B) {
	cfg := benchConfig()
	cfg.EventsPerBroker = 50
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationForwarding(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEqualityFolding(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEqualityFolding(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSubsumptionCombo(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSubsumptionCombo(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBatch(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBatch(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// buildSummary inserts n workload subscriptions into a fresh summary.
func buildSummary(b *testing.B, n int, mode subsum.SummaryMode) (*subsum.Summary, *subsum.WorkloadGenerator) {
	b.Helper()
	gen, err := subsum.NewWorkload(subsum.DefaultWorkload())
	if err != nil {
		b.Fatal(err)
	}
	sm := subsum.NewSummary(gen.Schema(), mode)
	for i := 0; i < n; i++ {
		id := subsum.SubscriptionID{Broker: subsum.BrokerID(i % 1024), Local: subsum.LocalID(i / 1024)}
		if err := sm.Insert(id, gen.Subscription()); err != nil {
			b.Fatal(err)
		}
	}
	return sm, gen
}

// BenchmarkMatching measures Algorithm 1 per event against summaries of
// growing size — the Section 5.2.4 cost analysis (expected O(N)).
func BenchmarkMatching(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("subs-%d", n), func(b *testing.B) {
			sm, gen := buildSummary(b, n, subsum.Lossy)
			events := make([]*subsum.Event, 256)
			for i := range events {
				events[i] = gen.Event(0.5)
			}
			m := sm.NewMatcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatchKeys(events[i%len(events)])
			}
		})
	}
}

// sigma100Subs is the "Sigma=100" matcher baseline workload: the paper's
// 24-broker backbone at sigma = 100 subscriptions per broker.
const sigma100Subs = 24 * 100

// matcherWorkload builds the Sigma=100 summary and a fixed event stream
// for the BenchmarkMatcher* family.
func matcherWorkload(b *testing.B) (*subsum.Summary, []*subsum.Event) {
	sm, gen := buildSummary(b, sigma100Subs, subsum.Lossy)
	events := make([]*subsum.Event, 256)
	for i := range events {
		events[i] = gen.Event(0.5)
	}
	return sm, events
}

// BenchmarkMatcherPooled is Algorithm 1 through a reusable Matcher: dense
// epoch-stamped counters, indexed SACS lookups, zero steady-state
// allocations (asserted by TestMatcherZeroAllocs in internal/summary).
func BenchmarkMatcherPooled(b *testing.B) {
	sm, events := matcherWorkload(b)
	m := sm.NewMatcher()
	for _, ev := range events { // warm up scratch capacity
		m.MatchKeys(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchKeys(events[i%len(events)])
	}
}

// BenchmarkMatcherPooledParallel drives pooled matchers from all Ps — the
// configuration the experiments harness uses for its event sweeps.
func BenchmarkMatcherPooledParallel(b *testing.B) {
	sm, events := matcherWorkload(b)
	pool := subsum.NewMatcherPool(sm)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m := pool.Get()
			m.MatchKeys(events[i%len(events)])
			pool.Put(m)
			i++
		}
	})
}

// BenchmarkSummaryInsert measures per-subscription summarization cost.
func BenchmarkSummaryInsert(b *testing.B) {
	gen, err := subsum.NewWorkload(subsum.DefaultWorkload())
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]*subsum.Subscription, 4096)
	for i := range subs {
		subs[i] = gen.Subscription()
	}
	b.ResetTimer()
	sm := subsum.NewSummary(gen.Schema(), subsum.Lossy)
	for i := 0; i < b.N; i++ {
		if i%len(subs) == 0 && i > 0 {
			sm = subsum.NewSummary(gen.Schema(), subsum.Lossy)
		}
		id := subsum.SubscriptionID{Broker: subsum.BrokerID(i % 1024), Local: subsum.LocalID(i / 1024)}
		if err := sm.Insert(id, subs[i%len(subs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaryMerge measures multi-broker summary merging
// (Section 4.1), the inner operation of Algorithm 2.
func BenchmarkSummaryMerge(b *testing.B) {
	a, _ := buildSummary(b, 1000, subsum.Lossy)
	other, _ := buildSummary(b, 1000, subsum.Lossy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := a.Clone()
		if err := clone.Merge(other); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaryEncode measures the wire codec for a 1000-subscription
// summary (what one Algorithm 2 send serializes).
func BenchmarkSummaryEncode(b *testing.B) {
	sm, _ := buildSummary(b, 1000, subsum.Lossy)
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = sm.Encode(buf[:0])
	}
	b.SetBytes(int64(len(sm.Encode(nil))))
}

// BenchmarkSummaryDecode measures parsing the same summary back.
func BenchmarkSummaryDecode(b *testing.B) {
	sm, gen := buildSummary(b, 1000, subsum.Lossy)
	buf := sm.Encode(nil)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subsum.DecodeSummary(gen.Schema(), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// propagationWorkload builds per-broker Sigma=100 summaries over the
// 24-broker backbone — one Algorithm 2 phase's worth of input.
func propagationWorkload(b *testing.B) (*subsum.Graph, []*subsum.Summary) {
	b.Helper()
	g := subsum.Backbone24()
	gen, err := subsum.NewWorkload(subsum.DefaultWorkload())
	if err != nil {
		b.Fatal(err)
	}
	own := make([]*subsum.Summary, g.Len())
	for i := range own {
		own[i] = subsum.NewSummary(gen.Schema(), subsum.Lossy)
		for j := 0; j < 100; j++ {
			id := subsum.SubscriptionID{Broker: subsum.BrokerID(i), Local: subsum.LocalID(j)}
			if err := own[i].Insert(id, gen.Subscription()); err != nil {
				b.Fatal(err)
			}
		}
	}
	return g, own
}

// BenchmarkPropagationRun is the clone-free Algorithm 2 phase: one encode
// per send into a pooled buffer, MergeEncoded at the receiver,
// copy-on-receive merged summaries.
func BenchmarkPropagationRun(b *testing.B) {
	g, own := propagationWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subsum.RunPropagation(g, own); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecEncode encodes a Sigma=100 broker summary into a reused
// buffer — what one first-iteration Algorithm 2 send serializes.
func BenchmarkCodecEncode(b *testing.B) {
	sm, _ := buildSummary(b, 100, subsum.Lossy)
	b.SetBytes(int64(len(sm.Encode(nil))))
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = sm.Encode(buf[:0])
	}
}

// BenchmarkCodecDecode parses the same summary back.
func BenchmarkCodecDecode(b *testing.B) {
	sm, gen := buildSummary(b, 100, subsum.Lossy)
	wire := sm.Encode(nil)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := subsum.DecodeSummary(gen.Schema(), wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveEngineEndToEnd runs the full asynchronous engine: one
// propagation period plus a burst of published events with deliveries.
func BenchmarkLiveEngineEndToEnd(b *testing.B) {
	gen, err := subsum.NewWorkload(subsum.DefaultWorkload())
	if err != nil {
		b.Fatal(err)
	}
	s := gen.Schema()
	events := make([]*subsum.Event, 128)
	for i := range events {
		events[i] = gen.Event(0.8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := subsum.NewNetwork(subsum.NetworkConfig{
			Topology: subsum.Backbone24(),
			Schema:   s,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 240; j++ {
			if _, err := net.Subscribe(subsum.NodeID(j%24), gen.Subscription(),
				func(subsum.SubscriptionID, *subsum.Event) {}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := net.Propagate(); err != nil {
			b.Fatal(err)
		}
		for j, ev := range events {
			if err := net.Publish(subsum.NodeID(j%24), ev); err != nil {
				b.Fatal(err)
			}
		}
		net.Flush()
		b.StopTimer()
		net.Close()
		b.StartTimer()
	}
}

func BenchmarkSizeModelValidation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SizeModelValidation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossTopology(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossTopology(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package broker

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/workload"
)

// deliverWorkload returns a generator tuned for match density: few
// constrained attributes per subscription, many attributes per event, all
// constraints drawn from the canonical ranges/patterns. The default Table
// 2 mix (5-of-10 attrs on both sides) makes full-conjunction matches
// vanishingly rare, which would leave a delivery differential vacuous.
func deliverWorkload(t testing.TB, seed int64) *workload.Generator {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.AttrsPerSub = 2
	cfg.AttrsPerEvent = 8
	cfg.Subsumption = 1.0
	cfg.Seed = seed
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// deliverRecorder captures the id set of one synchronous DeliverExact*
// call at a time.
type deliverRecorder struct {
	mu  sync.Mutex
	ids []uint64
}

func (r *deliverRecorder) deliver(id subid.ID, _ *schema.Event) {
	r.mu.Lock()
	r.ids = append(r.ids, id.Key())
	r.mu.Unlock()
}

func (r *deliverRecorder) take() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.ids
	r.ids = nil
	slices.Sort(out)
	return out
}

// DeliverExactScan is the delivery oracle: a linear exact-match scan over
// every raw subscription, with no summary in the way. The differential
// test and the pruning benchmark compare the engine's paths against it.
func (b *Broker) DeliverExactScan(ev *schema.Event) int {
	b.mu.Lock()
	var hits []*subEntry
	for _, e := range b.subs {
		if e.sub.Matches(ev) {
			hits = append(hits, e)
		}
	}
	b.mu.Unlock()
	// The map scan yields hits in random order; deliver deterministically.
	slices.SortFunc(hits, func(x, y *subEntry) int { return cmp.Compare(x.id.Local, y.id.Local) })
	return b.deliverHits(ev, hits)
}

// loadedBroker returns a broker with nSubs workload subscriptions, all
// delivering into the shared recorder.
func loadedBroker(t testing.TB, gen *workload.Generator, nSubs int) (*Broker, *deliverRecorder) {
	t.Helper()
	b, err := New(Config{ID: 0, Schema: gen.Schema(), Mode: interval.Lossy, NumBrokers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &deliverRecorder{}
	for i := 0; i < nSubs; i++ {
		if _, err := b.Subscribe(gen.Subscription(), rec.deliver); err != nil {
			t.Fatal(err)
		}
	}
	return b, rec
}

// TestDeliverExactPrunedMatchesScan is the delivery-set regression test
// for the summary-pruned exact-match path: for every event, the pruned
// DeliverExact must invoke exactly the consumers the full-scan reference
// does, in count and in identity — on a small snapshot and on a large one.
func TestDeliverExactPrunedMatchesScan(t *testing.T) {
	for _, tc := range []struct{ subs int }{{2000}, {8192}} {
		gen := deliverWorkload(t, 7)
		b, rec := loadedBroker(t, gen, tc.subs)
		total := 0
		for i := 0; i < 300; i++ {
			ev := gen.Event(0.9)
			nPruned := b.DeliverExact(ev)
			pruned := rec.take()
			nScan := b.DeliverExactScan(ev)
			scanned := rec.take()
			if nPruned != nScan {
				t.Fatalf("%d subs, event %d: pruned delivered %d, scan %d", tc.subs, i, nPruned, nScan)
			}
			if !slices.Equal(pruned, scanned) {
				t.Fatalf("%d subs, event %d: delivery sets diverge\npruned: %v\nscan:   %v",
					tc.subs, i, pruned, scanned)
			}
			total += nScan
		}
		if total == 0 {
			t.Fatal("workload produced zero deliveries; the differential is vacuous")
		}
	}
}

// TestMatchSnapshotFreshness proves every mutator retires the published
// snapshot: matches immediately reflect Subscribe, MergeEncodedSummary, and
// Unsubscribe with no flush or propagation step in between.
func TestMatchSnapshotFreshness(t *testing.T) {
	s := testSchema(t)
	a := newBroker(t, 0, 2)
	ev, _ := schema.ParseEvent(s, `price=50`)

	if got := len(a.MatchMerged(ev)); got != 0 {
		t.Fatalf("empty broker matched %d ids", got)
	}
	sub, _ := schema.ParseSubscription(s, `price > 10`)
	id, err := a.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.MatchMerged(ev)); got != 1 {
		t.Fatalf("post-Subscribe match = %d ids, want 1", got)
	}

	// A remote merge is visible to the very next match, and the leased
	// Merged_Brokers set is the same generation.
	remote := newBroker(t, 1, 2)
	if _, err := remote.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	sum, set := remote.SnapshotMerged()
	if err := a.MergeEncodedSummary(sum.Encode(nil), set); err != nil {
		t.Fatal(err)
	}
	if got := len(a.MatchMerged(ev)); got != 2 {
		t.Fatalf("post-merge match = %d ids, want 2", got)
	}
	lease := a.AcquireMatcher()
	if mb := lease.MergedBrokers(); !mb.Has(1) {
		t.Fatal("leased Merged_Brokers missing merged peer")
	}
	lease.Release()

	// Unsubscribe: the exact path must stop delivering immediately, even
	// if the lossy merged row lingers until compaction.
	if err := a.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if got := a.DeliverExact(ev); got != 0 {
		t.Fatalf("post-Unsubscribe DeliverExact = %d, want 0", got)
	}
}

// TestMatchLatencyObserved checks the match instrument: MatchMerged and
// a leased multi-event run both feed the latency histogram once per
// event, so its count is the number of matched events and a long run
// weighs in the percentiles by its length.
func TestMatchLatencyObserved(t *testing.T) {
	s := testSchema(t)
	reg := metrics.NewRegistry()
	b, err := New(Config{ID: 0, Schema: s, Mode: interval.Lossy, NumBrokers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := schema.ParseSubscription(s, `price > 10`)
	if _, err := b.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	ev, _ := schema.ParseEvent(s, `price=50`)
	for i := 0; i < 5; i++ {
		b.MatchMerged(ev)
	}
	run := []*schema.Event{ev, ev, ev, ev, ev, ev, ev}
	lease := b.AcquireMatcher()
	start := time.Now()
	lease.MatchBatch(run)
	b.ObserveMatchRun(time.Since(start), len(run))
	lease.Release()

	h := reg.HistogramVec("broker_match_seconds", metrics.DefLatencyBuckets).With("0")
	if got, want := h.Count(), int64(5+len(run)); got != want {
		t.Fatalf("broker_match_seconds count = %d, want one per matched event (%d)", got, want)
	}
	if got := b.DeliverExact(ev); got != 1 {
		t.Fatalf("DeliverExact = %d, want 1", got)
	}
}

// TestConcurrentMatchAndMutate races the lock-free read path (MatchMerged,
// DeliverExact, batch leases) against every snapshot-retiring mutator.
// Under -race this is the snapshot-swap memory-model regression test.
func TestConcurrentMatchAndMutate(t *testing.T) {
	gen := deliverWorkload(t, 11)
	b, _ := loadedBroker(t, gen, 200)
	remote, err := New(Config{ID: 1, Schema: gen.Schema(), Mode: interval.Lossy, NumBrokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := remote.Subscribe(gen.Subscription(), noDeliver); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-generate events and subscriptions: the generator's rng is not
	// concurrency-safe.
	events := make([]*schema.Event, 64)
	for i := range events {
		events[i] = gen.Event(0.9)
	}
	churnSubs := make([]*schema.Subscription, 64)
	for i := range churnSubs {
		churnSubs[i] = gen.Subscription()
	}
	sum, set := remote.SnapshotMerged()

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ev := events[(r+i)%len(events)]
				switch i % 3 {
				case 0:
					b.MatchMerged(ev)
				case 1:
					b.DeliverExact(ev)
				case 2:
					lease := b.AcquireMatcher()
					res := lease.MatchBatch(events[:8])
					_ = lease.MergedBrokers().Count()
					_ = res
					lease.Release()
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(churnSubs); i++ {
			id, err := b.Subscribe(churnSubs[i], noDeliver)
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			if i%2 == 0 {
				if err := b.Unsubscribe(id); err != nil {
					t.Errorf("unsubscribe: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := b.MergeEncodedSummary(sum.Encode(nil), set); err != nil {
				t.Errorf("merge: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// benchDeliverBroker builds the 10k-subscription broker the ISSUE's
// pruning benchmark calls for, with events pre-generated.
func benchDeliverBroker(b *testing.B) (*Broker, []*schema.Event) {
	b.Helper()
	gen := deliverWorkload(b, 13)
	br, err := New(Config{ID: 0, Schema: gen.Schema(), Mode: interval.Lossy, NumBrokers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := br.Subscribe(gen.Subscription(), noDeliver); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]*schema.Event, 256)
	for i := range events {
		events[i] = gen.Event(0.9)
	}
	return br, events
}

func BenchmarkDeliverExactPruned(b *testing.B) {
	br, events := benchDeliverBroker(b)
	br.DeliverExact(events[0]) // build the snapshot outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.DeliverExact(events[i%len(events)])
	}
}

func BenchmarkDeliverExactScan(b *testing.B) {
	br, events := benchDeliverBroker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.DeliverExactScan(events[i%len(events)])
	}
}

package summary

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// buildRandomSummary inserts n random subscriptions for broker 1, then
// churns a fraction of them (remove) and merges in a second broker's
// summary, so the registry has seen swap-deletes and merge registration.
func buildRandomSummary(t testing.TB, rng *rand.Rand, s *schema.Schema, mode interval.Mode, n int) *Summary {
	t.Helper()
	sm := New(s, mode)
	for i := 0; i < n; i++ {
		if err := sm.Insert(subid.ID{Broker: 1, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/5; i++ {
		sm.Remove(subid.ID{Broker: 1, Local: subid.LocalID(rng.Intn(n))})
	}
	other := New(s, mode)
	for i := 0; i < n/3; i++ {
		if err := other.Insert(subid.ID{Broker: 2, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sm.Merge(other); err != nil {
		t.Fatal(err)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestMatcherMatchesLegacy is the differential property test: across
// randomized workloads the pooled Matcher must report byte-identical key
// sets and identical MatchCost to the map-based reference
// (reference_test.go).
func TestMatcherMatchesLegacy(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(31))
	events := 0
	for _, mode := range []interval.Mode{interval.Lossy, interval.Exact} {
		for trial := 0; trial < 6; trial++ {
			sm := buildRandomSummary(t, rng, s, mode, 60+rng.Intn(60))
			m := sm.NewMatcher()
			for probe := 0; probe < 150; probe++ {
				ev := randomEvent(rng, s)
				events++
				wantKeys, wantCost := sm.referenceMatchKeysWithCost(ev)
				gotKeys, gotCost := m.MatchKeysWithCost(ev)
				if !equalKeys(wantKeys, gotKeys) {
					t.Fatalf("mode %v trial %d: keys diverge on %s\nlegacy  %v\nmatcher %v",
						mode, trial, ev.Format(s), wantKeys, gotKeys)
				}
				if wantCost != gotCost {
					t.Fatalf("mode %v trial %d: cost diverges on %s\nlegacy  %+v\nmatcher %+v",
						mode, trial, ev.Format(s), wantCost, gotCost)
				}
			}
			// Mutating the summary mid-stream must not confuse the matcher's
			// dense scratch (registry growth and swap-deletes).
			if err := sm.Insert(subid.ID{Broker: 3, Local: 1}, randomSubscription(rng, s)); err != nil {
				t.Fatal(err)
			}
			sm.Remove(subid.ID{Broker: 1, Local: 0})
			for probe := 0; probe < 50; probe++ {
				ev := randomEvent(rng, s)
				events++
				wantKeys := sm.referenceMatchKeys(ev)
				gotKeys, _ := m.MatchKeysWithCost(ev)
				if !equalKeys(wantKeys, gotKeys) {
					t.Fatalf("mode %v trial %d post-mutation: keys diverge on %s", mode, trial, ev.Format(s))
				}
			}
		}
	}
	if events < 1000 {
		t.Fatalf("differential test covered only %d events, want ≥1000", events)
	}
}

// TestMatcherMatchIDs checks the id-reconstructing entry point against
// the reference's ids and c3 masks.
func TestMatcherMatchIDs(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(32))
	sm := buildRandomSummary(t, rng, s, interval.Lossy, 80)
	m := sm.NewMatcher()
	for probe := 0; probe < 200; probe++ {
		ev := randomEvent(rng, s)
		if want, got := sm.referenceMatch(ev), m.Match(ev); !reflect.DeepEqual(want, got) {
			t.Fatalf("Match diverges on %s:\nlegacy  %v\nmatcher %v", ev.Format(s), want, got)
		}
	}
}

// TestMatcherPoolConcurrent runs pooled matchers from many goroutines
// against one shared summary and checks every result against the serial
// answer. Run under -race this also exercises the SACS index's lazy build
// from concurrent readers.
func TestMatcherPoolConcurrent(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(33))
	sm := buildRandomSummary(t, rng, s, interval.Lossy, 120)
	const nEvents = 400
	events := make([]*schema.Event, nEvents)
	want := make([][]uint64, nEvents)
	for i := range events {
		events[i] = randomEvent(rng, s)
		want[i] = sm.referenceMatchKeys(events[i])
	}
	pool := NewMatcherPool(sm)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := g; i < nEvents; i += 8 {
					m := pool.Get()
					got := m.MatchKeys(events[i])
					if !equalKeys(want[i], got) {
						t.Errorf("goroutine %d event %d: got %v want %v", g, i, got, want[i])
					}
					pool.Put(m)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMatcherZeroAllocs asserts the acceptance criterion: once warmed up,
// a matcher does not allocate per matched event.
func TestMatcherZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(34))
	sm := buildRandomSummary(t, rng, s, interval.Lossy, 150)
	events := make([]*schema.Event, 64)
	for i := range events {
		events[i] = randomEvent(rng, s)
	}
	m := sm.NewMatcher()
	matched := 0
	for _, ev := range events { // warm up scratch capacity
		matched += len(m.MatchKeys(ev))
	}
	if matched == 0 {
		t.Fatal("workload produced no matches; allocation assertion would be vacuous")
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		m.MatchKeys(events[i%len(events)])
		i++
	})
	if avg != 0 {
		t.Fatalf("Matcher.MatchKeys allocates %.2f objects per event, want 0", avg)
	}
}

func equalKeys(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// benchMatcher builds the warmed matcher + event set the hot-path
// benchmarks share. The zero-alloc promise these benchmarks defend is
// gated in CI (benchcheck -alloczero), so their names are load-bearing.
func benchMatcher(b *testing.B, withObs bool) (*Matcher, []*schema.Event) {
	b.Helper()
	s := stockSchema(b)
	rng := rand.New(rand.NewSource(34))
	sm := buildRandomSummary(b, rng, s, interval.Lossy, 150)
	events := make([]*schema.Event, 64)
	for i := range events {
		events[i] = randomEvent(rng, s)
	}
	m := sm.NewMatcher()
	if withObs {
		reg := metrics.NewRegistry()
		m.SetObs(&MatcherObs{
			Events:    reg.Counter("match_events"),
			Collected: reg.Counter("match_collected"),
			Matched:   reg.Counter("match_matched"),
		})
	}
	for _, ev := range events { // warm up scratch capacity
		m.MatchKeys(ev)
	}
	return m, events
}

// BenchmarkMatcherMatchKeys is the summary-match hot path: CI gates this
// benchmark at 0 allocs/op.
func BenchmarkMatcherMatchKeys(b *testing.B) {
	m, events := benchMatcher(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchKeys(events[i%len(events)])
	}
}

// BenchmarkMatcherMatchKeysInstrumented is the same path with the cost
// observers attached — health instrumentation must not reintroduce
// allocations, so CI gates this one at 0 allocs/op too.
func BenchmarkMatcherMatchKeysInstrumented(b *testing.B) {
	m, events := benchMatcher(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchKeys(events[i%len(events)])
	}
}

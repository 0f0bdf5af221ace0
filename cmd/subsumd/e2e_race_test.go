package main

// End-to-end observability soak: the whole retained-telemetry stack —
// publishers, the propagation loop, the metrics sampler, the invariant
// watchdog, wire clients, and concurrent /debug/* scrapers — runs
// against one live network at once, under the race detector in CI's
// race job. The assertions are the PR's acceptance criteria: zero
// watchdog violations on a healthy engine, and non-empty history and
// journal afterwards.
//
// When the test fails and SUBSUM_ARTIFACT_DIR is set (the CI race job
// sets it), the flight-recorder journal plus a registry snapshot are
// dumped there so the failure can be debugged from the uploaded
// artifact alone.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/debughttp"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/wire"
)

func TestEndToEndObservabilityRace(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	reg := metrics.NewRegistry()
	rec := flight.NewRecorder(128 * 1024)
	network, err := core.New(core.Config{
		Topology: topology.Figure7Tree(),
		Schema:   s,
		Mode:     interval.Lossy,
		Metrics:  reg,
		Flight:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	network.SetTraceSampling(7)

	// On failure, leave the journal + metrics behind for the CI artifact
	// upload — the same document a crashing daemon would have written.
	t.Cleanup(func() {
		if dir := os.Getenv("SUBSUM_ARTIFACT_DIR"); t.Failed() && dir != "" {
			if err := os.MkdirAll(dir, 0o755); err == nil {
				path := filepath.Join(dir, "e2e-observability-dump.json")
				if err := flight.DumpToFile(path, rec, reg); err == nil {
					t.Logf("wrote failure dump to %s", path)
				}
			}
		}
	})

	sampler := metrics.NewSampler(reg, 10*time.Millisecond, 64)
	sampler.Start()
	defer sampler.Stop()
	wd := network.StartWatchdog(10 * time.Millisecond)

	srv := wire.NewServer(network, s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := httptest.NewServer(debughttp.NewMux(debughttp.State{Network: network, Sampler: sampler, Rec: rec}))
	defer ts.Close()

	// Subscribers on a few leaves; deliveries are counted so the run
	// provably moved events end to end, not just through empty summaries.
	var delivered atomic.Int64
	for _, b := range []topology.NodeID{5, 9, 12} {
		sub, err := schema.ParseSubscription(s, `symbol = OTE`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := network.Subscribe(b, sub, func(subid.ID, *schema.Event) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := network.Propagate(); err != nil {
		t.Fatal(err)
	}

	const (
		publisherGoroutines = 4
		eventsPerPublisher  = 150
		propagations        = 25
	)
	ev, err := schema.ParseEvent(s, "symbol=OTE price=8.40")
	if err != nil {
		t.Fatal(err)
	}
	miss, err := schema.ParseEvent(s, "symbol=MSFT price=330")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	publishersDone := make(chan struct{})
	errs := make(chan error, 64)

	// Publishers: concurrent Publish from different ingress brokers,
	// alternating matching and non-matching events.
	var pubWG sync.WaitGroup
	for p := 0; p < publisherGoroutines; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			at := topology.NodeID(p % network.Len())
			for i := 0; i < eventsPerPublisher; i++ {
				e := ev
				if i%3 == 0 {
					e = miss
				}
				if err := network.Publish(at, e); err != nil {
					errs <- fmt.Errorf("publish: %w", err)
					return
				}
			}
		}(p)
	}
	go func() { pubWG.Wait(); close(publishersDone) }()

	// Propagation loop racing the publishers, as subsumd's ticker does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < propagations; i++ {
			if _, err := network.Propagate(); err != nil {
				errs <- fmt.Errorf("propagate: %w", err)
				return
			}
		}
	}()

	// Concurrent /debug/* scrapers, one per endpoint, polling at least
	// once and then until the publishers finish.
	scrape := func(path string) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %d", path, resp.StatusCode)
		}
		return nil
	}
	for _, path := range []string{
		"/metrics",
		"/metrics?format=json",
		"/metrics?format=prometheus",
		"/debug/history",
		"/debug/convergence",
		"/debug/journal",
		"/debug/journal?format=text",
		"/trace",
		"/trace?format=chrome",
	} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				if err := scrape(path); err != nil {
					errs <- err
					return
				}
				select {
				case <-publishersDone:
					return
				default:
				}
			}
		}(path)
	}

	// A wire client exercising the stats op over real TCP while everything
	// above runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := wire.Dial(addr, nil)
		if err != nil {
			errs <- fmt.Errorf("dial: %w", err)
			return
		}
		defer cl.Close()
		for {
			if _, err := cl.Stats(); err != nil {
				errs <- fmt.Errorf("wire stats: %w", err)
				return
			}
			select {
			case <-publishersDone:
				return
			default:
			}
		}
	}()

	<-publishersDone
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesce, then force one summary rebuild so late subscriptions are
	// covered, and one final watchdog pass over the settled engine.
	network.Flush()
	if _, err := network.Propagate(); err != nil {
		t.Fatal(err)
	}
	network.Flush()
	if violations := wd.RunOnce(); len(violations) > 0 {
		t.Errorf("watchdog violations on healthy engine: %v", violations)
	}
	for name, v := range reg.Map() {
		if strings.HasPrefix(name, "watchdog_violations_total{") && v != 0 {
			t.Errorf("%s = %v during the run, want 0", name, v)
		}
	}

	// The run must have moved real traffic and retained real telemetry.
	if delivered.Load() == 0 {
		t.Error("no deliveries — the soak did not exercise the match path")
	}
	sampler.Tick(time.Now())
	hist := sampler.History()
	if hist.Ticks == 0 || len(hist.Series) == 0 {
		t.Errorf("history empty after run: ticks=%d series=%d", hist.Ticks, len(hist.Series))
	}
	if pt, ok := hist.Latest("events_published"); !ok || pt.Value != float64(publisherGoroutines*eventsPerPublisher) {
		t.Errorf("history events_published = %+v, want %d", pt, publisherGoroutines*eventsPerPublisher)
	}
	js := rec.Stats()
	if js.Records == 0 {
		t.Error("flight journal empty after run")
	}
	types := map[string]bool{}
	for _, r := range rec.Records() {
		types[r.TypeName] = true
	}
	for _, want := range []string{"subscribe", "period-start", "period-end"} {
		if !types[want] {
			t.Errorf("journal missing %q records (have %v)", want, types)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/debughttp"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/slo"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

// serveDebug serves st through subsumd's own debug handler and returns
// the listener's host:port, the form -addr takes.
func serveDebug(t *testing.T, st debughttp.State) string {
	t.Helper()
	ts := httptest.NewServer(debughttp.NewMux(st))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestRunRendersLiveServer is the subsumtop e2e: a real network behind
// the real debug handler with a sampler and SLO monitor attached, polled
// over HTTP.
func TestRunRendersLiveServer(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	reg := metrics.NewRegistry()
	network, err := core.New(core.Config{
		Topology: topology.Figure7Tree(),
		Schema:   s,
		Mode:     interval.Lossy,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()

	sampler := metrics.NewSampler(reg, time.Hour, 16)
	sampler.RetainBuckets(slo.LatencyFamily)
	eng, err := slo.New(slo.DefaultSpecs(slo.Targets{})...)
	if err != nil {
		t.Fatal(err)
	}
	monitor := slo.NewMonitor(eng, sampler, reg, nil)
	addr := serveDebug(t, debughttp.State{Network: network, Sampler: sampler, SLO: monitor.Last})

	sub, err := schema.ParseSubscription(s, `symbol = OTE`)
	if err != nil {
		t.Fatal(err)
	}
	// Broker 5's subscription is reached by deliver sends; broker 0's, at
	// the publisher, is delivered without one, so the two EVENTS rows
	// differ.
	for _, at := range []topology.NodeID{5, 0} {
		if _, err := network.Subscribe(at, sub, func(subid.ID, *schema.Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := network.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := network.Publish(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	network.Flush()
	sampler.Tick(time.Now())
	sampler.Tick(time.Now().Add(time.Second))
	monitor.EvalOnce()

	var buf bytes.Buffer
	if err := run(&buf, topConfig{addr: addr, every: time.Millisecond, frames: 2, clear: false}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	sends := reg.Map()["deliver_sends"]
	if sends == 6 {
		t.Fatalf("deliver_sends = %v equals the deliveries; the rows are indistinguishable", sends)
	}
	for _, want := range []string{
		"subsumtop — " + addr,
		"frame 2",                 // both frames rendered
		"history: 2 ticks",        // /debug/history answered
		"published             3", // registry totals made it across HTTP
		fmt.Sprintf("deliver sends %9.0f", sends),
		"delivered             6", // Σ broker_deliveries, not deliver_sends
		"WATCHDOG",
		"SLO",
		"publish_deliver_p99",
		"delivery_loss",
		"HEALTH",
		"convergence: period 1",
		"BROKERS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("clear=false frame still contains ANSI escapes")
	}
	// The per-broker table must include broker 5 (the subscriber) with
	// its subscription and delivery counted.
	found := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "5" && f[1] == "1" && f[3] == "3" {
			found = true
		}
	}
	if !found {
		t.Errorf("broker 5 row (subs=1 deliv=3) not found:\n%s", out)
	}
}

// TestRunJSONSnapshot is the -json e2e: one shot over real HTTP must
// yield a parseable document carrying the stats map and the health
// report (convergence + false-positive attribution).
func TestRunJSONSnapshot(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	network, err := core.New(core.Config{
		Topology: topology.Figure7Tree(),
		Schema:   s,
		Mode:     interval.Lossy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	addr := serveDebug(t, debughttp.State{Network: network})

	sub, err := schema.ParseSubscription(s, `symbol = OTE && price > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := network.Subscribe(5, sub, func(subid.ID, *schema.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Propagate(); err != nil {
		t.Fatal(err)
	}
	// A price that fails the constraint but shares the summary's symbol
	// key can become a false positive; either way the snapshot must
	// carry the attribution section.
	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	network.Flush()

	var buf bytes.Buffer
	if err := run(&buf, topConfig{addr: addr, json: true, frames: 1}); err != nil {
		t.Fatal(err)
	}
	var snap jsonSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Addr != addr {
		t.Errorf("addr = %q, want %q", snap.Addr, addr)
	}
	if snap.Stats["events_published"] != 1 {
		t.Errorf("events_published = %v, want 1", snap.Stats["events_published"])
	}
	if snap.Health == nil || snap.Health.Convergence == nil {
		t.Fatalf("snapshot missing health/convergence: %s", buf.String())
	}
	if snap.Health.Convergence.Period != 1 {
		t.Errorf("convergence period = %d, want 1", snap.Health.Convergence.Period)
	}
	if snap.Health.FalsePositives == nil {
		t.Errorf("snapshot missing false-positive report")
	}
	if len(snap.Health.Convergence.Brokers) != network.Len() {
		t.Errorf("convergence covers %d brokers, want %d",
			len(snap.Health.Convergence.Brokers), network.Len())
	}
}

// TestRunLargeHistory: a fully warmed history document on a large
// registry is several MiB. Over the wire protocol it once overran the
// client's line limit and the dashboard silently showed "history: off";
// the frame must show every tick.
func TestRunLargeHistory(t *testing.T) {
	s := schema.MustNew(schema.Attribute{Name: "price", Type: schema.TypeFloat})
	network, err := core.New(core.Config{Topology: topology.Figure7Tree(), Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	const extraSeries, capacity = 1500, 64
	for i := 0; i < extraSeries; i++ {
		network.Metrics().Counter(fmt.Sprintf("synthetic_series_%04d", i)).Inc()
	}
	sampler := metrics.NewSampler(network.Metrics(), time.Second, capacity)
	now := time.Now()
	for i := 0; i < capacity; i++ {
		sampler.Tick(now.Add(time.Duration(i) * time.Second))
	}
	var doc bytes.Buffer
	if err := sampler.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Len() < 1<<20 {
		t.Fatalf("history doc only %d bytes — not a regression-sized document", doc.Len())
	}
	addr := serveDebug(t, debughttp.State{Network: network, Sampler: sampler})

	var buf bytes.Buffer
	if err := run(&buf, topConfig{addr: addr, frames: 1}); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("history: %d ticks", capacity); !strings.Contains(buf.String(), want) {
		t.Fatalf("frame missing %q:\n%s", want, buf.String())
	}
}

func TestRunDialFailure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, topConfig{addr: "127.0.0.1:1", every: time.Millisecond, frames: 1}); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestRenderFrameWithoutHistory(t *testing.T) {
	var buf bytes.Buffer
	renderFrame(&buf, "x", 1, map[string]float64{"events_published": 7}, nil, nil, nil)
	out := buf.String()
	if !strings.Contains(out, "history: off") {
		t.Errorf("missing history-off note:\n%s", out)
	}
	if !strings.Contains(out, "published             7") {
		t.Errorf("missing published total:\n%s", out)
	}
	if strings.Contains(out, "SLO") {
		t.Errorf("SLO pane rendered without an SLO report:\n%s", out)
	}
}

func TestBrokerRowsAndHelpers(t *testing.T) {
	m := map[string]float64{
		"broker_subscriptions{3}":       2,
		"broker_merged_subs{3}":         2,
		"broker_deliveries{3}":          9,
		"broker_false_positives{3}":     1,
		"broker_summary_merges{3}":      4,
		"broker_match_seconds{3}.p95":   0.0005,
		"broker_subscriptions{10}":      1,
		"broker_match_seconds{3}.count": 12, // derived, not a row field
		"events_published":              100,
		"bus_messages{event}":           6,
		"bus_messages{summary}":         4,
	}
	rows := brokerRows(m)
	if len(rows) != 2 || rows[0].id != 3 || rows[1].id != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.subs != 2 || r.deliveries != 9 || r.falsePos != 1 || r.merges != 4 || r.matchP95 != 0.0005 {
		t.Fatalf("broker 3 row = %+v", r)
	}
	if got := sumLabeled(m, "bus_messages"); got != 10 {
		t.Fatalf("sumLabeled(bus_messages) = %v", got)
	}
	if got := fmtSeconds(0.0005); got != "0.50ms" {
		t.Fatalf("fmtSeconds(0.0005) = %q", got)
	}
	if got := fmtSeconds(0); got != "-" {
		t.Fatalf("fmtSeconds(0) = %q", got)
	}
}

package debughttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/slo"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

func testNetwork(t *testing.T) (*core.Network, *schema.Schema) {
	t.Helper()
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
	t.Cleanup(func() { network.Close() })
	return network, s
}

func TestDebugMetricsEndpoint(t *testing.T) {
	network, s := testNetwork(t)
	ts := httptest.NewServer(NewMux(State{Network: network}))
	defer ts.Close()

	sub, err := schema.ParseSubscription(s, `symbol = OTE`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := network.Subscribe(5, sub, func(subid.ID, *schema.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	network.Flush()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{"events_published 1", "propagation_periods 1", "bus_messages{event}"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics text missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics json: %v", err)
	}
	if m["events_published"] != 1 {
		t.Fatalf("json events_published = %v", m["events_published"])
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	network, s := testNetwork(t)
	ts := httptest.NewServer(NewMux(State{Network: network}))
	defer ts.Close()

	get := func(url string) (int, []core.Trace) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Sampling int          `json:"sampling"`
			Traces   []core.Trace `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Sampling, out.Traces
	}

	if sampling, traces := get(ts.URL + "/trace"); sampling != 0 || len(traces) != 0 {
		t.Fatalf("fresh network: sampling=%d traces=%d", sampling, len(traces))
	}
	if sampling, _ := get(ts.URL + "/trace?sample=1"); sampling != 1 {
		t.Fatalf("sampling after ?sample=1: %d", sampling)
	}

	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Publish(2, ev); err != nil {
		t.Fatal(err)
	}
	network.Flush()

	_, traces := get(ts.URL + "/trace")
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	if traces[0].Origin != 2 || len(traces[0].Path) == 0 || traces[0].Path[0] != 2 {
		t.Fatalf("trace = %+v", traces[0])
	}

	resp, err := http.Get(ts.URL + "/trace?sample=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus sample: %d", resp.StatusCode)
	}
}

func TestDebugPprofAndVars(t *testing.T) {
	network, _ := testNetwork(t)
	ts := httptest.NewServer(NewMux(State{Network: network}))
	defer ts.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}
}

func TestDebugMetricsPrometheus(t *testing.T) {
	network, s := testNetwork(t)
	ts := httptest.NewServer(NewMux(State{Network: network}))
	defer ts.Close()

	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	network.Flush()

	check := func(req *http.Request) {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
			t.Fatalf("Content-Type = %q", ct)
		}
		text := string(body)
		for _, want := range []string{"# TYPE events_published counter", "events_published 1"} {
			if !strings.Contains(text, want) {
				t.Errorf("prometheus exposition missing %q:\n%s", want, text)
			}
		}
	}

	// Prometheus servers negotiate via the Accept header; humans can ask
	// explicitly with ?format=prometheus.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4; charset=utf-8")
	check(req)
	req, _ = http.NewRequest("GET", ts.URL+"/metrics?format=prometheus", nil)
	check(req)
}

func TestDebugHistoryEndpoint(t *testing.T) {
	network, s := testNetwork(t)
	sampler := metrics.NewSampler(network.Metrics(), time.Hour, 16)
	ts := httptest.NewServer(NewMux(State{Network: network, Sampler: sampler}))
	defer ts.Close()

	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	network.Flush()
	sampler.Tick(time.Now())

	resp, err := http.Get(ts.URL + "/debug/history")
	if err != nil {
		t.Fatal(err)
	}
	var hist metrics.History
	err = json.NewDecoder(resp.Body).Decode(&hist)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hist.Ticks != 1 {
		t.Fatalf("history ticks = %d, want 1", hist.Ticks)
	}
	pt, ok := hist.Latest("events_published")
	if !ok || pt.Value != 1 {
		t.Fatalf("events_published latest = %+v ok=%v", pt, ok)
	}
}

func TestDebugJournalEndpoint(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	rec := flight.NewRecorder(1 << 16)
	network, err := core.New(core.Config{
		Topology: topology.Figure7Tree(),
		Schema:   s,
		Mode:     interval.Lossy,
		Flight:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	ts := httptest.NewServer(NewMux(State{Network: network, Rec: rec}))
	defer ts.Close()

	sub, err := schema.ParseSubscription(s, `symbol = OTE`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := network.Subscribe(5, sub, func(subid.ID, *schema.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Propagate(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/journal")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stats   flight.Stats    `json:"stats"`
		Records []flight.Record `json:"records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Records) == 0 {
		t.Fatal("journal has no records after subscribe+propagate")
	}
	seen := map[string]bool{}
	for _, r := range doc.Records {
		seen[r.TypeName] = true
	}
	for _, want := range []string{flight.EvSubscribe.String(), flight.EvPeriodStart.String(), flight.EvPeriodEnd.String()} {
		if !seen[want] {
			t.Errorf("journal missing %q records", want)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/journal?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "subscribe") {
		t.Fatalf("text journal missing subscribe line:\n%s", body)
	}
}

func TestDebugHistoryJournalDisabled(t *testing.T) {
	network, _ := testNetwork(t)
	ts := httptest.NewServer(NewMux(State{Network: network}))
	defer ts.Close()

	for _, path := range []string{"/debug/history", "/debug/journal"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without attachment: %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestDebugTraceChromeCapacityClear(t *testing.T) {
	network, s := testNetwork(t)
	ts := httptest.NewServer(NewMux(State{Network: network}))
	defer ts.Close()

	network.SetTraceSampling(1)
	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := network.Publish(2, ev); err != nil {
			t.Fatal(err)
		}
	}
	network.Flush()

	resp, err := http.Get(ts.URL + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			Name  string `json:"name"`
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var slices int
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatalf("chrome trace has no slices: %+v", doc)
	}

	get := func(url string) (capacity int, traces []core.Trace) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Capacity int          `json:"capacity"`
			Traces   []core.Trace `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Capacity, out.Traces
	}

	if capacity, traces := get(ts.URL + "/trace?capacity=3"); capacity != 3 || len(traces) != 3 {
		t.Fatalf("after ?capacity=3: capacity=%d traces=%d", capacity, len(traces))
	}
	if _, traces := get(ts.URL + "/trace?clear=1"); len(traces) != 0 {
		t.Fatalf("after ?clear=1: traces=%d", len(traces))
	}
}

func TestDebugSLOEndpoint(t *testing.T) {
	network, s := testNetwork(t)
	sampler := metrics.NewSampler(network.Metrics(), time.Hour, 16)
	sampler.RetainBuckets(slo.LatencyFamily)
	eng, err := slo.New(slo.DefaultSpecs(slo.Targets{})...)
	if err != nil {
		t.Fatal(err)
	}
	monitor := slo.NewMonitor(eng, sampler, network.Metrics(), nil)
	ts := httptest.NewServer(NewMux(State{Network: network, Sampler: sampler, SLO: monitor.Last}))
	defer ts.Close()

	// Before the first evaluation the endpoint refuses with 503, so a
	// scraper can tell "not yet" from "not configured".
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-evaluation /debug/slo: %d, want 503", resp.StatusCode)
	}

	ev, err := schema.ParseEvent(s, "symbol=OTE price=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	network.Flush()
	sampler.Tick(time.Now())
	monitor.EvalOnce()

	resp, err = http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/slo Content-Type = %q", ct)
	}
	var rep slo.Report
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(rep.Verdicts) != 5 {
		t.Fatalf("/debug/slo: status %d, %d verdicts", resp.StatusCode, len(rep.Verdicts))
	}
	// One verdict per default objective, each with a valid state and an
	// evidence window; a healthy run reports no loss and no staleness.
	states := map[string]slo.State{}
	for _, v := range rep.Verdicts {
		states[v.Name] = v.State
		switch v.State {
		case slo.StateOK, slo.StateWarn, slo.StateBreach:
		default:
			t.Fatalf("%s: bad state %q", v.Name, v.State)
		}
		if v.Evidence.WindowTicks == 0 {
			t.Fatalf("%s: no evidence window after a tick", v.Name)
		}
	}
	for _, name := range []string{
		"publish_deliver_p99", "convergence_staleness", "delivery_precision",
		"delivery_loss", "bytes_per_period",
	} {
		if _, ok := states[name]; !ok {
			t.Fatalf("objective %s missing from /debug/slo", name)
		}
	}
	if states["delivery_loss"] != slo.StateOK || states["convergence_staleness"] != slo.StateOK {
		t.Fatalf("healthy run: delivery_loss %s, convergence_staleness %s",
			states["delivery_loss"], states["convergence_staleness"])
	}

	// The gauge mirrors land in /metrics alongside everything else.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "slo_state{") {
		t.Fatalf("/metrics missing slo_state gauges:\n%s", body)
	}
}

func TestDebugSLODisabled(t *testing.T) {
	network, _ := testNetwork(t)
	ts := httptest.NewServer(NewMux(State{Network: network}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/slo without monitor: %d, want 404", resp.StatusCode)
	}
}

// TestDebugStatusAndContentTypes sweeps every debug surface on a fully
// wired mux and pins each endpoint's status code and content type.
func TestDebugStatusAndContentTypes(t *testing.T) {
	network, _ := testNetwork(t)
	sampler := metrics.NewSampler(network.Metrics(), time.Hour, 16)
	sampler.Tick(time.Now())
	rec := flight.NewRecorder(1 << 14)
	rec.Record(flight.EvPeriodStart, -1, 1, 0, 0, "")
	eng, err := slo.New(slo.DefaultSpecs(slo.Targets{})...)
	if err != nil {
		t.Fatal(err)
	}
	monitor := slo.NewMonitor(eng, sampler, network.Metrics(), rec)
	monitor.EvalOnce()
	ts := httptest.NewServer(NewMux(State{Network: network, Sampler: sampler, Rec: rec, SLO: monitor.Last}))
	defer ts.Close()

	cases := []struct {
		path   string
		status int
		ct     string
	}{
		{"/metrics", http.StatusOK, "text/plain; charset=utf-8"},
		{"/metrics?format=json", http.StatusOK, "application/json"},
		{"/metrics?format=prometheus", http.StatusOK, metrics.PromContentType},
		{"/debug/history", http.StatusOK, "application/json"},
		{"/debug/journal", http.StatusOK, "application/json"},
		{"/debug/journal?format=text", http.StatusOK, "text/plain; charset=utf-8"},
		{"/debug/slo", http.StatusOK, "application/json"},
		{"/debug/convergence", http.StatusOK, "application/json"},
		{"/trace", http.StatusOK, "application/json"},
		{"/trace?format=chrome", http.StatusOK, "application/json"},
		{"/trace?sample=bogus", http.StatusBadRequest, ""},
		{"/trace?capacity=-1", http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if tc.ct != "" && resp.Header.Get("Content-Type") != tc.ct {
			t.Errorf("%s: Content-Type %q, want %q", tc.path, resp.Header.Get("Content-Type"), tc.ct)
		}
		if tc.status == http.StatusOK && len(body) == 0 {
			t.Errorf("%s: empty 200 body", tc.path)
		}
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

// expectedRoute replays Algorithm 3's deterministic walk for a network
// whose summaries are fully propagated: starting at origin, the event
// repeatedly jumps to the first broker in forwarding-preference order
// whose subscriptions BROCLI has not yet covered.
func expectedRoute(net *Network, origin topology.NodeID) []int {
	n := len(net.brokers)
	brocli := subid.NewMask(n)
	route := []int{int(origin)}
	node := origin
	for {
		for _, i := range net.brokers[node].MergedBrokers().Bits() {
			brocli.Set(i)
		}
		if brocli.Count() == n {
			return route
		}
		advanced := false
		for _, next := range net.order.Nodes() {
			if brocli.Has(int(next)) {
				continue
			}
			route = append(route, int(next))
			node = next
			advanced = true
			break
		}
		if !advanced {
			return route
		}
	}
}

func TestHopTracePathMatchesRoute(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Figure7Tree(), s)

	sub, err := schema.ParseSubscription(s, `symbol = OTE && price < 9`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := net.Subscribe(7, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	net.Flush()

	net.SetTraceSampling(1)
	if got := net.TraceSampling(); got != 1 {
		t.Fatalf("TraceSampling = %d", got)
	}
	ev, err := schema.ParseEvent(s, "symbol=OTE price=8.40")
	if err != nil {
		t.Fatal(err)
	}
	const origin = 2
	want := expectedRoute(net, origin)
	// expectedRoute reads the engine's own order, so pin the walk itself:
	// paper brokers 3 → 5 (the hub) → 8 → 11, where 8 before 11 is the id
	// tie-break between two brokers of degree 3.
	if !slices.Equal(want, []int{2, 4, 7, 10}) {
		t.Fatalf("expected route = %v, want [2 4 7 10]", want)
	}
	if err := net.Publish(origin, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()

	traces := net.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Origin != origin {
		t.Fatalf("origin = %d, want %d", tr.Origin, origin)
	}
	if tr.Event == "" {
		t.Fatal("trace lost the event text")
	}
	if len(tr.Path) != len(want) {
		t.Fatalf("path = %v, want %v", tr.Path, want)
	}
	for i := range want {
		if tr.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", tr.Path, want)
		}
	}
	// The walk's decisions: a delivery at the subscriber's broker, forwards
	// in between, and a suppressed-by-summary terminal once BROCLI is full.
	var delivered, falsePos, forwards, suppressed int
	for _, h := range tr.Hops {
		switch h.Decision {
		case DecisionDelivered:
			delivered++
			if h.Broker != 7 {
				t.Errorf("delivered at broker %d, want 7", h.Broker)
			}
			if h.Matched == 0 {
				t.Error("delivered hop recorded no summary hits")
			}
		case DecisionFalsePositive:
			falsePos++
		case DecisionForwarded:
			forwards++
			if h.Bytes == 0 {
				t.Error("forwarded hop recorded no bytes")
			}
		case DecisionSuppressed:
			suppressed++
		default:
			t.Errorf("unknown decision %q", h.Decision)
		}
	}
	if delivered != 1 || suppressed != 1 {
		t.Fatalf("decisions: delivered=%d falsePos=%d forwards=%d suppressed=%d hops=%v",
			delivered, falsePos, forwards, suppressed, tr.Hops)
	}
	if forwards != len(want)-1 {
		t.Fatalf("forwards = %d, want %d (one per routing edge)", forwards, len(want)-1)
	}
	// The terminal decision happens at the last broker on the path.
	last := tr.Hops[len(tr.Hops)-1]
	if last.Decision != DecisionSuppressed || last.Broker != want[len(want)-1] {
		t.Fatalf("terminal hop = %+v, want suppressed at %d", last, want[len(want)-1])
	}
	if tr.CumBytes == 0 {
		t.Fatal("trace accumulated no bytes")
	}
}

func TestTraceSamplingRate(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Ring(4), s)
	net.SetTraceSampling(3)
	ev, err := schema.ParseEvent(s, "symbol=X price=1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := net.Publish(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	if got := len(net.Traces()); got != 3 {
		t.Fatalf("sampled %d of 9 publishes at 1/3, want 3", got)
	}
	// Turning sampling off stops new traces but keeps the recorded ones.
	net.SetTraceSampling(0)
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if got := len(net.Traces()); got != 3 {
		t.Fatalf("traces after sampling off = %d, want 3", got)
	}
}

func TestTraceStoreBounded(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Ring(3), s)
	net.SetTraceSampling(1)
	ev, err := schema.ParseEvent(s, "symbol=X price=1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < defaultTraceCapacity+50; i++ {
		if err := net.Publish(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	traces := net.Traces()
	if len(traces) != defaultTraceCapacity {
		t.Fatalf("retained %d traces, want cap %d", len(traces), defaultTraceCapacity)
	}
	// Most recent first: ids descend.
	for i := 1; i < len(traces); i++ {
		if traces[i-1].ID <= traces[i].ID {
			t.Fatalf("traces not newest-first at %d: %d, %d", i, traces[i-1].ID, traces[i].ID)
		}
	}
}

// TestEventMsgHeaderRoundTrip: an event message's trace id survives its
// wire form, which is as long as eventMsgSize counts; corrupt headers are
// decode errors, not panics.
func TestEventMsgHeaderRoundTrip(t *testing.T) {
	s := stockSchema(t)
	ev, err := schema.ParseEvent(s, "symbol=OTE price=8.40")
	if err != nil {
		t.Fatal(err)
	}
	for _, traceID := range []uint64{0, 1, 1 << 60} {
		m := newEventMsg(ev, 8, traceID)
		buf, err := encodeEventMsg(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if size := eventMsgSize(m); size != len(buf) {
			t.Fatalf("traceID %d: size %d, wire form %d bytes", traceID, size, len(buf))
		}
		got, err := decodeEventMsg(s, buf, 8)
		if err != nil {
			t.Fatalf("traceID %d: %v", traceID, err)
		}
		if got.traceID != traceID {
			t.Fatalf("traceID = %d, want %d", got.traceID, traceID)
		}
	}
	if _, _, err := decodeMsgHeader(nil); err == nil {
		t.Fatal("empty header accepted")
	}
	if _, _, err := decodeMsgHeader([]byte{0xFE}); err == nil {
		t.Fatal("unknown flags accepted")
	}
	if _, _, err := decodeMsgHeader([]byte{msgFlagTrace, 1, 2}); err == nil {
		t.Fatal("truncated trace id accepted")
	}
}

func TestNetworkMetricsSnapshot(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Figure7Tree(), s)
	sub, err := schema.ParseSubscription(s, `symbol = OTE`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := net.Subscribe(7, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, "symbol=OTE price=8.40")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	net.Flush()
	if c.count() != 1 {
		t.Fatalf("deliveries = %d", c.count())
	}

	m := net.Metrics().Map()
	for _, name := range []string{
		"events_published",
		"events_routed",
		"events_forwarded",
		"propagation_periods",
		"propagation_hops",
		"propagation_bytes",
		"bus_messages{event}",
		"bus_messages{summary}",
		"broker_subscriptions{7}",
		"broker_deliveries{7}",
	} {
		if m[name] == 0 {
			t.Errorf("%s = 0, want nonzero (snapshot: %d samples)", name, len(m))
		}
	}
	if m["events_published"] != 1 {
		t.Errorf("events_published = %v, want 1", m["events_published"])
	}
	// Latency histograms observed the match path.
	if m["broker_match_seconds{0}.count"] == 0 {
		t.Error("broker match histogram empty")
	}
	if m["propagation_period_seconds.count"] != 1 {
		t.Errorf("propagation_period_seconds.count = %v, want 1", m["propagation_period_seconds.count"])
	}
}

func TestTraceCapacityAndClear(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Ring(3), s)
	net.SetTraceSampling(1)
	ev, err := schema.ParseEvent(s, "symbol=X price=1")
	if err != nil {
		t.Fatal(err)
	}
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := net.Publish(0, ev); err != nil {
				t.Fatal(err)
			}
		}
		net.Flush()
	}

	net.SetTraceCapacity(10)
	if got := net.TraceCapacity(); got != 10 {
		t.Fatalf("TraceCapacity = %d, want 10", got)
	}
	publish(25)
	traces := net.Traces()
	if len(traces) != 10 {
		t.Fatalf("retained %d traces at capacity 10", len(traces))
	}
	// The survivors are the newest: highest ids.
	if traces[len(traces)-1].ID != traces[0].ID-9 {
		t.Fatalf("retained window wrong: newest=%d oldest=%d", traces[0].ID, traces[len(traces)-1].ID)
	}

	// Shrinking evicts immediately.
	net.SetTraceCapacity(4)
	if got := len(net.Traces()); got != 4 {
		t.Fatalf("retained %d traces after shrink to 4", got)
	}

	// n ≤ 0 restores the default.
	net.SetTraceCapacity(0)
	if got := net.TraceCapacity(); got != defaultTraceCapacity {
		t.Fatalf("TraceCapacity after reset = %d, want %d", got, defaultTraceCapacity)
	}

	net.ClearTraces()
	if got := len(net.Traces()); got != 0 {
		t.Fatalf("%d traces after ClearTraces", got)
	}
	// Store still works after clearing.
	publish(2)
	if got := len(net.Traces()); got != 2 {
		t.Fatalf("%d traces after post-clear publishes, want 2", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	s := stockSchema(t)
	net := newNetwork(t, topology.Figure7Tree(), s)
	sub, err := schema.ParseSubscription(s, `symbol = OTE`)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := net.Subscribe(7, sub, c.deliver(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Propagate(); err != nil {
		t.Fatal(err)
	}
	net.SetTraceSampling(1)
	ev, err := schema.ParseEvent(s, "symbol=OTE price=9")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := net.Publish(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()

	var buf bytes.Buffer
	if err := net.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TsUs  float64        `json:"ts"`
			DurUs float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var slices, meta int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			slices++
			if e.TsUs < 0 || e.DurUs < 0 {
				t.Fatalf("negative ts/dur in slice %+v", e)
			}
			if e.Name == "" || e.Args["trace_id"] == nil {
				t.Fatalf("slice missing name/args: %+v", e)
			}
		case "M":
			meta++
			if e.Args["name"] == "" {
				t.Fatalf("metadata without thread name: %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
	}
	if slices == 0 {
		t.Fatal("no hop slices exported")
	}
	if meta == 0 {
		t.Fatal("no thread-name metadata exported")
	}
	// Every traced hop appears as a slice.
	var hops int
	for _, tr := range net.Traces() {
		hops += len(tr.Hops)
	}
	if slices != hops {
		t.Fatalf("%d slices for %d hops", slices, hops)
	}
}

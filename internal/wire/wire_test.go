package wire

import (
	"net"
	"strings"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/topology"
)

func startServer(t *testing.T) (addr string, s *schema.Schema) {
	t.Helper()
	srv, addr := startServerOn(t, topology.Figure7Tree())
	return addr, srv.schema
}

// startServerOn serves a fresh network over g with the test schema.
func startServerOn(t *testing.T, g *topology.Graph) (*Server, string) {
	t.Helper()
	s := schema.MustNew(
		schema.Attribute{Name: "symbol", Type: schema.TypeString},
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
	)
	network, err := core.New(core.Config{
		Topology: g,
		Schema:   s,
		Mode:     interval.Lossy,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(network, s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		network.Close()
	})
	return srv, addr
}

// delivery collector
type deliveries struct {
	mu  sync.Mutex
	got []string
}

func (d *deliveries) on(broker int, local uint32, event string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.got = append(d.got, event)
}

func (d *deliveries) list() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.got...)
}

func TestSubscribePublishDeliver(t *testing.T) {
	addr, _ := startServer(t)
	var d deliveries
	cl, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	broker, local, err := cl.Subscribe(3, `symbol = OTE && price < 8.70`)
	if err != nil {
		t.Fatal(err)
	}
	if broker != 3 || local != 0 {
		t.Fatalf("id = %d/%d", broker, local)
	}
	hops, err := cl.Propagate()
	if err != nil || hops <= 0 {
		t.Fatalf("propagate: hops=%d err=%v", hops, err)
	}
	if err := cl.Publish(0, `symbol=OTE price=8.40`); err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish(0, `symbol=OTE price=9.40`); err != nil {
		t.Fatal(err)
	}
	// No extra round trip before checking: the server writes a publish's
	// deliveries ahead of its reply, and the client hands each line to
	// onEvent before it reads the next, so a delivery to the publishing
	// connection has reached onEvent by the time Publish returns.
	got := d.list()
	if len(got) != 1 || !strings.Contains(got[0], "8.4") {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestTwoClientsSeparateDeliveries(t *testing.T) {
	addr, _ := startServer(t)
	var d1, d2 deliveries
	c1, err := Dial(addr, d1.on)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr, d2.on)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, err := c1.Subscribe(1, `price > 10`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.Subscribe(8, `price < 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Propagate(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Publish(0, `price=20`); err != nil {
		t.Fatal(err)
	}
	if err := c1.Publish(0, `price=1`); err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := d1.list(); len(got) != 1 || !strings.Contains(got[0], "20") {
		t.Fatalf("client1 deliveries = %v", got)
	}
	if got := d2.list(); len(got) != 1 || !strings.Contains(got[0], "1") {
		t.Fatalf("client2 deliveries = %v", got)
	}
}

func TestUnsubscribeViaWire(t *testing.T) {
	addr, _ := startServer(t)
	var d deliveries
	cl, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	broker, local, err := cl.Subscribe(2, `price > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(broker, local); err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish(0, `price=5`); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := d.list(); len(got) != 0 {
		t.Fatalf("deliveries after unsubscribe = %v", got)
	}
	if err := cl.Unsubscribe(broker, local); err == nil {
		t.Fatal("double unsubscribe accepted")
	}
}

func TestStatsAndErrors(t *testing.T) {
	addr, _ := startServer(t)
	cl, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Subscribe(1, `nonsense <<`); err == nil {
		t.Fatal("bad expression accepted")
	}
	if _, _, err := cl.Subscribe(99, `price > 1`); err == nil {
		t.Fatal("bad broker accepted")
	}
	if err := cl.Publish(0, `price=notanumber`); err == nil {
		t.Fatal("bad event accepted")
	}
	if _, err := cl.Propagate(); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["summary_messages"] <= 0 {
		t.Fatalf("stats = %v", st)
	}
	// Loss/error counters are present and exactly zero on a clean run.
	for _, key := range []string{"dropped", "summary_dropped", "errors"} {
		if v, ok := st[key]; !ok || v != 0 {
			t.Fatalf("stats[%q] = %d (present %v), want 0", key, v, ok)
		}
	}
	// Unknown op goes through the raw round trip.
	if _, err := cl.roundTrip(Request{Op: "bogus"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestChurnCountersViaWire: the stats reply exposes the network-wide
// churn health counters — a propagated unsubscribe shows up as a pending
// retraction and a fenced id, and the next period drains the retraction.
func TestChurnCountersViaWire(t *testing.T) {
	addr, _ := startServer(t)
	var d deliveries
	cl, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	broker, local, err := cl.Subscribe(2, `price > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Propagate(); err != nil { // rows leave the owner
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(broker, local); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["pending_retracts"] != 1 || st["fenced_ids"] != 1 {
		t.Fatalf("pending_retracts=%d fenced_ids=%d after propagated unsubscribe, want 1, 1",
			st["pending_retracts"], st["fenced_ids"])
	}
	if _, err := cl.Propagate(); err != nil { // retraction ships
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["pending_retracts"] != 0 {
		t.Fatalf("pending_retracts=%d after the retraction period, want 0", st["pending_retracts"])
	}
	if _, ok := st["compactions"]; !ok {
		t.Fatalf("stats reply missing compactions: %v", st)
	}
}

func TestExtendSchemaViaWire(t *testing.T) {
	addr, _ := startServer(t)
	var d deliveries
	cl, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, err := cl.ExtendSchema("volume", "int")
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("attribute id = %d, want 2", id)
	}
	if _, err := cl.ExtendSchema("volume", "int"); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := cl.ExtendSchema("x", "bogus"); err == nil {
		t.Fatal("bogus type accepted")
	}
	if _, _, err := cl.Subscribe(1, `volume > 100`); err != nil {
		t.Fatalf("subscription over evolved schema: %v", err)
	}
	if _, err := cl.Propagate(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish(5, `volume=500`); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := d.list(); len(got) != 1 {
		t.Fatalf("deliveries = %v", got)
	}
}

// TestServerSurvivesGarbage: malformed protocol lines get error replies
// (or are skipped) without crashing the connection or the server.
func TestServerSurvivesGarbage(t *testing.T) {
	addr, _ := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	garbage := []string{
		"not json at all",
		`{"op":123}`,
		`{"op":"subscribe","broker":"NaN"}`,
		"",
		`{"op":"publish"}`,
		string(make([]byte, 500)),
	}
	for _, line := range garbage {
		if _, err := raw.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	// The server must still answer a well-formed client afterwards.
	cl, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("server unhealthy after garbage: %v", err)
	}
}

// TestStatsMetricsEndToEnd drives the full wire path — subscribe,
// propagate, publish, deliver — and asserts the engine's
// instrument-registry snapshot has the counters that workload must have
// moved, and that the stats reply's bus accounting agrees with it.
func TestStatsMetricsEndToEnd(t *testing.T) {
	srv, addr := startServerOn(t, topology.Figure7Tree())
	var d deliveries
	cl, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, _, err := cl.Subscribe(7, `symbol = OTE && price < 9`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Propagate(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish(2, `symbol=OTE price=8.40`); err != nil {
		t.Fatal(err)
	}
	if got := d.list(); len(got) != 1 {
		t.Fatalf("deliveries = %v", got)
	}

	m := srv.net.Metrics().Map()
	// Counters this workload must have moved.
	for _, name := range []string{
		"events_published",
		"events_routed",
		"events_forwarded",
		"broker_deliveries{7}",
		"propagation_periods",
		"bus_messages{event}",
		"bus_messages{summary}",
	} {
		if m[name] == 0 {
			t.Errorf("metrics[%q] = 0, want nonzero", name)
		}
	}
	// Drop accounting must be present (and zero on a healthy run).
	for _, name := range []string{"bus_dropped{event}", "bus_dropped{summary}"} {
		if v, ok := m[name]; !ok {
			t.Errorf("metrics[%q] missing", name)
		} else if v != 0 {
			t.Errorf("metrics[%q] = %v, want 0 on healthy run", name, v)
		}
	}

	// The stats reply's bus accounting must agree with the registry's
	// view of event traffic.
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["event_messages"] == 0 || st["dropped"] != 0 {
		t.Fatalf("stats = %v", st)
	}
	if float64(st["event_messages"]) != m["bus_messages{event}"] {
		t.Fatalf("bus accounting disagrees: stats=%d registry=%v",
			st["event_messages"], m["bus_messages{event}"])
	}
}

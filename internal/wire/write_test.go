package wire

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

// priceOf extracts the price a test event carries from its delivery text.
func priceOf(t *testing.T, text string) float64 {
	t.Helper()
	i := strings.Index(text, "price=")
	if i < 0 {
		t.Errorf("delivery %q carries no price", text)
		return -1
	}
	p, err := strconv.ParseFloat(strings.TrimSuffix(text[i+len("price="):], "}"), 64)
	if err != nil {
		t.Errorf("delivery %q: %v", text, err)
	}
	return p
}

// deliveryCounter counts deliveries per (subscription, price).
type deliveryCounter struct {
	t    *testing.T
	mu   sync.Mutex
	got  map[[3]float64]int
	n    int
	more chan struct{} // pinged after each delivery
}

func newDeliveryCounter(t *testing.T) *deliveryCounter {
	return &deliveryCounter{t: t, got: make(map[[3]float64]int), more: make(chan struct{}, 1)}
}

func (d *deliveryCounter) on(broker int, local uint32, event string) {
	key := [3]float64{float64(broker), float64(local), priceOf(d.t, event)}
	d.mu.Lock()
	d.got[key]++
	d.n++
	d.mu.Unlock()
	select {
	case d.more <- struct{}{}:
	default:
	}
}

// await fails the test unless n deliveries in all have arrived within
// the deadline.
func (d *deliveryCounter) await(n int) {
	d.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		d.mu.Lock()
		got := d.n
		d.mu.Unlock()
		if got >= n {
			return
		}
		select {
		case <-d.more:
		case <-deadline:
			d.t.Fatalf("%d of %d deliveries arrived", got, n)
		}
	}
}

// check fails the test unless the deliveries were exactly want: each
// (broker, local, price) once, and nothing else.
func (d *deliveryCounter) check(want [][3]float64) {
	d.t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, key := range want {
		if c := d.got[key]; c != 1 {
			d.t.Fatalf("subscription %v/%v got price %v %d times, want once", key[0], key[1], key[2], c)
		}
	}
	if d.n != len(want) {
		d.t.Fatalf("%d deliveries, want %d", d.n, len(want))
	}
}

// TestDeliveriesNeverStranded: subscribers that send nothing after
// subscribing — so no reply of their own ever carries their lines out —
// get every delivery exactly once, round after round, while two wire
// publishers and two in-process publishers run at once. A delivery left
// for a sweep that has already run is never written: its round times out.
func TestDeliveriesNeverStranded(t *testing.T) {
	for _, g := range []*topology.Graph{topology.Figure7Tree(), topology.CW24()} {
		t.Run(g.Name(), func(t *testing.T) {
			srv, addr := startServerOn(t, g)
			n := g.Len()
			d := newDeliveryCounter(t)
			// Publisher p's events match only subscription p, made over a
			// connection of its own, so no later delivery can carry a
			// stranded line out, and a sweep has several connections to write.
			var subs [][2]int
			for p, b := range []int{0, n / 3, n / 2, n - 1} {
				sub, err := Dial(addr, d.on)
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				broker, local, err := sub.Subscribe(b, fmt.Sprintf("symbol = S%d", p))
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, [2]int{broker, int(local)})
			}
			if _, err := srv.net.Propagate(); err != nil {
				t.Fatal(err)
			}
			var pubs [2]*Client
			for i := range pubs {
				var err error
				if pubs[i], err = Dial(addr, nil); err != nil {
					t.Fatal(err)
				}
				defer pubs[i].Close()
			}
			const rounds = 40
			var want [][3]float64
			for k := 0; k < rounds; k++ {
				var wg sync.WaitGroup
				for p := 0; p < 4; p++ {
					price := 1000*(p+1) + k
					want = append(want, [3]float64{float64(subs[p][0]), float64(subs[p][1]), float64(price)})
					wg.Add(1)
					go func() {
						defer wg.Done()
						text := fmt.Sprintf("symbol=S%d price=%d", p, price)
						var err error
						if p < len(pubs) {
							err = pubs[p].Publish((p*7+k)%n, text)
						} else {
							// At the owner, some time into the wire publishes.
							var ev *schema.Event
							if ev, err = schema.ParseEvent(srv.schema, text); err == nil {
								time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
								err = srv.net.Publish(topology.NodeID(subs[p][0]), ev)
							}
						}
						if err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				d.await(len(want))
			}
			d.check(want)
		})
	}
}

// TestDeliveriesWrittenBeforeReply: when a publish's reply reaches the
// publisher, its deliveries to another connection have been written, so
// no connection holds a line.
func TestDeliveriesWrittenBeforeReply(t *testing.T) {
	srv, addr := startServerOn(t, topology.CW24())
	const events = 50
	d := newDeliveryCounter(t)
	sub, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var want [][3]float64
	for _, b := range []int{2, 11, 23} {
		broker, local, err := sub.Subscribe(b, `price > 0`)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= events; k++ {
			want = append(want, [3]float64{float64(broker), float64(local), float64(k)})
		}
	}
	pub, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Propagate(); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= events; k++ {
		if err := pub.Publish(k%24, fmt.Sprintf("price=%d", k)); err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		for cc := range srv.conns {
			cc.mu.Lock()
			pending := len(cc.out)
			cc.mu.Unlock()
			if pending != 0 {
				srv.mu.Unlock()
				t.Fatalf("event %d: a connection still holds %d bytes after the publish reply", k, pending)
			}
		}
		srv.mu.Unlock()
	}
	d.await(len(want))
	d.check(want)
}

// TestPendingBufferBounded: with a wire publish in flight, a subscriber
// that does not read holds at most pendingCap plus one line unwritten
// however many deliveries arrive; all of them reach it once it reads.
func TestPendingBufferBounded(t *testing.T) {
	srv, addr := startServerOn(t, topology.Figure7Tree())
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	rd := bufio.NewReaderSize(raw, 1<<20)
	if _, err := raw.Write([]byte(`{"op":"subscribe","expr":"price > 0"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := rd.ReadString('\n'); err != nil || strings.Contains(line, "error") {
		t.Fatalf("subscribe reply %q, %v", line, err)
	}
	srv.mu.Lock()
	var cc *conn
	for c := range srv.conns {
		cc = c
	}
	srv.mu.Unlock()

	// ~60 KB lines: the buffer reaches the cap every ~17 deliveries, and the
	// whole run is more than loopback buffers hold unread.
	const events = 120
	big := strings.Repeat("x", 60000)
	maxLine := 0
	srv.beginPublish()
	for k := 1; k <= events; k++ {
		ev, err := schema.NewEvent(srv.schema, map[string]schema.Value{
			"symbol": schema.StringValue(big), "price": schema.FloatValue(float64(k)),
		})
		if err != nil {
			t.Fatal(err)
		}
		line := appendDeliveryLine(nil, 0, 0, appendString(nil, ev.AppendFormat(nil, srv.schema)))
		maxLine = max(maxLine, len(line))
		if err := srv.net.Publish(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); int(cc.peak.Load()) < pendingCap; {
		if time.Now().After(deadline) {
			t.Fatalf("pending peak %d never reached the cap %d", int(cc.peak.Load()), pendingCap)
		}
		time.Sleep(time.Millisecond)
	}
	read := make(chan error, 1)
	go func() {
		for k := 1; k <= events; k++ {
			line, err := rd.ReadString('\n')
			if err != nil {
				read <- err
				return
			}
			var resp Response
			if err := parseResponse([]byte(line[:len(line)-1]), &resp); err != nil || resp.Type != "delivery" ||
				!strings.HasSuffix(resp.Event, fmt.Sprintf("price=%d}", k)) {
				read <- fmt.Errorf("line %d: %.80q…, %v", k, line, err)
				return
			}
		}
		read <- nil
	}()
	srv.net.Flush()
	srv.sweep(nil)
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("deliveries did not arrive")
	}
	if peak := int(cc.peak.Load()); peak > pendingCap+maxLine {
		t.Fatalf("pending peak %d > cap %d + one line %d", peak, pendingCap, maxLine)
	}
}

// TestWriteErrorDropsLines: a failed write marks the connection dead;
// later lines to it are dropped, not buffered or queued for a sweep.
func TestWriteErrorDropsLines(t *testing.T) {
	s := schema.MustNew(schema.Attribute{Name: "price", Type: schema.TypeFloat})
	srv := &Server{schema: s}
	near, far := net.Pipe()
	far.Close()
	cc := &conn{srv: srv, c: near}
	ev, err := schema.ParseEvent(s, "price=1")
	if err != nil {
		t.Fatal(err)
	}
	cc.deliver(subid.ID{Broker: 1}, ev) // no publish in flight: written at once, and fails
	if !cc.dead || len(cc.out) != 0 {
		t.Fatalf("after a failed write: dead=%v pending=%d", cc.dead, len(cc.out))
	}
	srv.beginPublish()
	cc.deliver(subid.ID{Broker: 1, Local: 2}, ev)
	if len(cc.out) != 0 || len(srv.dirty) != 0 {
		t.Fatalf("line to a dead connection kept: pending=%d dirty=%d", len(cc.out), len(srv.dirty))
	}
	srv.sweep(nil)
	if err := cc.send(&Response{Type: "reply", Op: "ping"}); err == nil {
		t.Fatal("reply to a dead connection reported written")
	}
}

// TestConnCloseUnsubscribes: closing a connection removes the
// subscriptions made over it, so later events are not exact-matched and
// delivered to a closed socket.
func TestConnCloseUnsubscribes(t *testing.T) {
	srv, addr := startServerOn(t, topology.Figure7Tree())
	own := func() int {
		n := 0
		for i := 0; i < srv.net.Len(); i++ {
			n += srv.net.Broker(topology.NodeID(i)).Stats().OwnSubscriptions
		}
		return n
	}
	cl, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{3, 5} {
		if _, _, err := cl.Subscribe(b, `price > 1`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Propagate(); err != nil {
		t.Fatal(err)
	}
	if n := own(); n != 2 {
		t.Fatalf("%d subscriptions, want 2", n)
	}
	cl.Close()
	for deadline := time.Now().Add(5 * time.Second); own() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions left after the connection closed", own())
		}
	}
	ev, err := schema.ParseEvent(srv.schema, "price=5")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.net.Publish(0, ev); err != nil {
		t.Fatal(err)
	}
	srv.net.Flush()
	m := srv.net.Metrics().Map()
	if m["broker_deliveries{3}"] != 0 || m["broker_deliveries{5}"] != 0 {
		t.Fatalf("deliveries attempted after close: %v at broker 3, %v at broker 5",
			m["broker_deliveries{3}"], m["broker_deliveries{5}"])
	}
}

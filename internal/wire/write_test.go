package wire

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
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
// publishers and two in-process publishers run at once, and then while
// four in-process publishers do. A delivery left for a sweep that has
// already run, or whose writer missed its wake-up, is never written: its
// round times out.
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
			const rounds = 40 // mixed, then as many in-process only
			var want [][3]float64
			for k := 0; k < 2*rounds; k++ {
				var wg sync.WaitGroup
				for p := 0; p < 4; p++ {
					price := 1000*(p+1) + k
					want = append(want, [3]float64{float64(subs[p][0]), float64(subs[p][1]), float64(price)})
					wg.Add(1)
					go func() {
						defer wg.Done()
						text := fmt.Sprintf("symbol=S%d price=%d", p, price)
						var err error
						at := (p*7 + k) % n
						if p < len(pubs) && k < rounds {
							err = pubs[p].Publish(at, text)
						} else {
							// Some time into the other publishes; beside wire
							// publishes at the owner, without them anywhere.
							if k < rounds {
								at = subs[p][0]
							}
							var ev *schema.Event
							if ev, err = schema.ParseEvent(srv.schema, text); err == nil {
								time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
								err = srv.net.Publish(topology.NodeID(at), ev)
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

// TestSilentSubscriberSheds: at GOMAXPROCS=1, one worker runs every
// broker. A subscriber that never reads gets several MiB of ~60 KB
// deliveries from in-process publishes beside one that reads. Every round's
// Flush returns, since no delivery waits on a socket; once its writer's
// write stalls, the silent connection holds at most pendingCap plus one
// line behind it and sheds the rest;
// the reading subscriber, whose rounds fit under the cap, gets every
// delivery exactly once.
func TestSilentSubscriberSheds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, addr := startServerOn(t, topology.Figure7Tree())
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	rd := bufio.NewReader(raw)
	if _, err := raw.Write([]byte(`{"op":"subscribe","broker":3,"expr":"price > 0"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := rd.ReadString('\n'); err != nil || strings.Contains(line, "error") {
		t.Fatalf("subscribe reply %q, %v", line, err)
	}
	srv.mu.Lock()
	var silent *conn
	for c := range srv.conns {
		silent = c
	}
	srv.mu.Unlock()
	d := newDeliveryCounter(t)
	sub, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	broker, local, err := sub.Subscribe(5, `price > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.net.Propagate(); err != nil {
		t.Fatal(err)
	}

	const rounds, perRound = 16, 12 // 192 events of ~60 KB: 11 MiB, 700 KiB a round
	big := strings.Repeat("x", 60000)
	maxLine := 0
	var want [][3]float64
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			price := float64(1 + r*perRound + i)
			ev, err := schema.NewEvent(srv.schema, map[string]schema.Value{
				"symbol": schema.StringValue(big), "price": schema.FloatValue(price),
			})
			if err != nil {
				t.Fatal(err)
			}
			line := appendDeliveryLine(nil, 0, 0, appendString(nil, ev.AppendFormat(nil, srv.schema)))
			maxLine = max(maxLine, len(line))
			want = append(want, [3]float64{float64(broker), float64(local), price})
			if err := srv.net.Publish(topology.NodeID(i%srv.net.Len()), ev); err != nil {
				t.Fatal(err)
			}
		}
		flushed := make(chan struct{})
		go func() {
			srv.net.Flush()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Flush did not return beside a subscriber that does not read", r)
		}
		silent.mu.Lock()
		pending := len(silent.out)
		silent.mu.Unlock()
		if pending > pendingCap+maxLine {
			t.Fatalf("round %d: the silent connection holds %d bytes > cap %d + one line %d", r, pending, pendingCap, maxLine)
		}
		d.await(len(want))
	}
	if shed := srv.net.Metrics().Map()["wire_deliveries_shed"]; shed == 0 {
		t.Fatal("no delivery to the silent connection was shed")
	}
	d.check(want)
}

// TestWirePublishBurstNotShed: one wire publish whose deliveries to a
// subscriber that reads come to more than pendingCap — 20 subscriptions
// on one connection, each matching a ~60 KB event — loses nothing. The
// lines build up before the publish's sweep with no write in progress, so
// none is shed; the sweep's write, which the publisher waits on, carries
// them all.
func TestWirePublishBurstNotShed(t *testing.T) {
	srv, addr := startServerOn(t, topology.Figure7Tree())
	d := newDeliveryCounter(t)
	sub, err := Dial(addr, d.on)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const subs, events = 20, 4
	var ids [][2]int
	for i := 0; i < subs; i++ {
		broker, local, err := sub.Subscribe(3, `price > 0`)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, [2]int{broker, int(local)})
	}
	pub, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Propagate(); err != nil {
		t.Fatal(err)
	}
	// The subscriber's last reply is read once its write returns, but the
	// write counts as in progress until its goroutine runs again, which
	// under load can take past the first publish. Lines that find 1 MiB
	// behind a write in progress are shed by design; this test is about
	// lines that build up with none. A sweep ends its writes before its
	// publish's reply, so later publishes need no such wait.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		writing := false
		srv.mu.Lock()
		for cc := range srv.conns {
			cc.mu.Lock()
			writing = writing || cc.writing
			cc.mu.Unlock()
		}
		srv.mu.Unlock()
		if !writing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a reply write stayed in progress")
		}
	}
	big := strings.Repeat("x", 60000)
	var want [][3]float64
	for k := 1; k <= events; k++ {
		text := fmt.Sprintf("symbol=%s price=%d", big, k)
		ev, err := schema.ParseEvent(srv.schema, text)
		if err != nil {
			t.Fatal(err)
		}
		line := appendDeliveryLine(nil, 3, 0, appendString(nil, ev.AppendFormat(nil, srv.schema)))
		if k == 1 && subs*len(line) <= pendingCap {
			t.Fatalf("a publish delivers %d bytes to the subscriber, want more than %d", subs*len(line), pendingCap)
		}
		if err := pub.Publish(k%srv.net.Len(), text); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			want = append(want, [3]float64{float64(id[0]), float64(id[1]), float64(k)})
		}
	}
	d.await(len(want))
	d.check(want)
	if shed := srv.net.Metrics().Map()["wire_deliveries_shed"]; shed != 0 {
		t.Fatalf("%v deliveries to a reading subscriber were shed", shed)
	}
}

// TestWriteErrorDropsLines: a write by the connection's writer that fails
// marks the connection dead and ends the writer; later lines to it are
// dropped, not buffered or queued for a sweep, and a reply reports the
// failure.
func TestWriteErrorDropsLines(t *testing.T) {
	s := schema.MustNew(schema.Attribute{Name: "price", Type: schema.TypeFloat})
	srv := &Server{schema: s}
	near, far := net.Pipe()
	far.Close()
	cc := &conn{srv: srv, c: near, wake: make(chan struct{}, 1)}
	srv.wg.Add(1)
	go cc.writeLoop()
	ev, err := schema.ParseEvent(s, "price=1")
	if err != nil {
		t.Fatal(err)
	}
	cc.deliver(subid.ID{Broker: 1}, ev) // no publish in flight: the writer writes it, fails and exits
	exited := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("the writer did not exit after its write failed")
	}
	cc.mu.Lock()
	dead, pending := cc.dead, len(cc.out)
	cc.mu.Unlock()
	if !dead || pending != 0 {
		t.Fatalf("after a failed write: dead=%v pending=%d", dead, pending)
	}
	cc.deliver(subid.ID{Broker: 1, Local: 2}, ev)
	srv.beginPublish()
	cc.deliver(subid.ID{Broker: 1, Local: 3}, ev)
	cc.mu.Lock()
	pending = len(cc.out)
	cc.mu.Unlock()
	if pending != 0 || len(srv.dirty) != 0 {
		t.Fatalf("line to a dead connection kept: pending=%d dirty=%d", pending, len(srv.dirty))
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

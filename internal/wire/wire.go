// Package wire implements the TCP front end of the broker network: a
// line-delimited JSON protocol through which remote clients subscribe,
// publish, trigger propagation periods, and receive event deliveries.
// The stats op carries the bus accounting; the rest of the operator
// telemetry (registry, history, health, SLO) is served over HTTP by
// internal/debughttp.
//
// Requests, one JSON object per line, as Client writes them (zero fields
// are omitted, and < > & are escaped, as json.Marshal does; any JSON
// object with these keys is accepted):
//
//	{"op":"subscribe","broker":3,"expr":"symbol = OTE \u0026\u0026 price \u003c 8.70"}
//	{"op":"unsubscribe","broker":3,"local":1}
//	{"op":"publish","event":"symbol=OTE price=8.40"}
//	{"op":"propagate"}
//	{"op":"stats"}
//	{"op":"extend","attr":"newattr","attrtype":"float"}
//	{"op":"ping"}
//
// Replies carry the request's op plus either a result or an error, in
// request order; deliveries for this connection's subscriptions are pushed
// between them. As the server writes them:
//
//	{"type":"reply","op":"subscribe","broker":3}
//	{"type":"reply","op":"propagate","hops":21}
//	{"type":"delivery","broker":3,"event":"{symbol=\"OTE\", price=8.4}"}
//	{"type":"reply","op":"publish","error":"..."}
//
// Write path: a delivery appends its line to its connection's buffer
// inside the owning broker's handler, on the bus worker running it, and
// never writes or waits there (broker.DeliveryFunc must not block). While
// a wire publish is in flight the line waits for that publish, which after
// Flush writes every connection holding lines once and then its own reply;
// otherwise the delivery wakes the connection's writer goroutine. A
// delivery that finds pendingCap bytes waiting behind a write in progress
// is shed. Only the writer, a sweep and the connection's own replies write
// its socket, one at a time, so a publish's deliveries are written before
// its reply.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
)

// Request is one client request line.
type Request struct {
	Op       string `json:"op"`
	Broker   int    `json:"broker,omitempty"`
	Local    uint32 `json:"local,omitempty"`
	Expr     string `json:"expr,omitempty"`
	Event    string `json:"event,omitempty"`
	Attr     string `json:"attr,omitempty"`
	AttrType string `json:"attrtype,omitempty"`
}

// Response is one server line: a reply to a request or a pushed delivery.
type Response struct {
	Type   string           `json:"type"` // "reply" or "delivery"
	Op     string           `json:"op,omitempty"`
	Error  string           `json:"error,omitempty"`
	Broker int              `json:"broker,omitempty"`
	Local  uint32           `json:"local,omitempty"`
	Event  string           `json:"event,omitempty"`
	Hops   int              `json:"hops,omitempty"`
	Stats  map[string]int64 `json:"stats,omitempty"`
}

// Server exposes a core.Network over TCP.
type Server struct {
	net    *core.Network
	schema *schema.Schema
	ln     net.Listener
	shed   *metrics.Counter // wire_deliveries_shed: lines a full connection dropped

	mu    sync.Mutex
	conns map[*conn]struct{}
	wg    sync.WaitGroup

	// pendMu guards publishing (wire publishes between their Publish and
	// their sweep), dirty (connections holding lines for a sweep) and every
	// conn's queued flag. Sharing one mutex is what makes a delivery that
	// sees a publish in flight land on the list that publish's sweep takes;
	// with a counter checked apart from the list, a delivery could be
	// queued just after the last sweep and never written.
	pendMu     sync.Mutex
	publishing int
	dirty      []*conn
	// sweepMu runs sweeps one at a time, so a sweep returns only once every
	// line queued before it started is written, by it or an earlier sweep.
	sweepMu sync.Mutex
	swept   []*conn // spare for dirty; guarded by sweepMu
}

// conn is one client connection.
type conn struct {
	srv *Server
	c   net.Conn

	// wmu is held across every write to c. A write takes all of out, so
	// lines leave in the order they were appended.
	wmu   sync.Mutex
	spare []byte // the last write's buffer, out's next array; guarded by wmu

	mu      sync.Mutex    // guards the fields below; never held across a write
	out     []byte        // lines not yet written
	writing bool          // a write of earlier lines is in progress
	dead    bool          // a write failed or the serve loop ended: later lines are dropped
	ev      *schema.Event // the event evJSON renders; holding it keeps its address from reuse
	evJSON  []byte        // ev's text as a JSON string
	text    []byte        // scratch for the text

	queued bool          // on srv.dirty; guarded by srv.pendMu
	wake   chan struct{} // holds one wake-up for the writer

	subs []uint64 // keys of the ids subscribed over this connection; serve goroutine only
}

var errDead = errors.New("wire: connection write failed earlier")

// send appends one line and writes everything pending.
func (cc *conn) send(resp *Response) error {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return errDead
	}
	var err error
	cc.out, err = appendResponseLine(cc.out, resp)
	cc.mu.Unlock()
	if err != nil {
		return err
	}
	return cc.flush()
}

// deliver is the DeliveryFunc of every subscription made over cc; it runs
// in the owning broker's handler and never blocks. The event's text is
// rendered once per connection however many of its subscriptions match.
// The line is left for the sweep of a wire publish in flight, or else for
// the writer. A line that finds pendingCap bytes waiting behind a write in
// progress is shed: that write is stalled on a peer that is not keeping
// up. Lines that build up before a sweep, with no write in progress, are
// never shed, however many a publish delivers.
func (cc *conn) deliver(id subid.ID, ev *schema.Event) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	if cc.writing && len(cc.out) >= pendingCap {
		cc.mu.Unlock()
		cc.srv.shed.Inc()
		return
	}
	if ev != cc.ev {
		cc.text = ev.AppendFormat(cc.text[:0], cc.srv.schema)
		cc.evJSON = appendString(cc.evJSON[:0], cc.text)
		cc.ev = ev
	}
	cc.out = appendDeliveryLine(cc.out, int(id.Broker), uint32(id.Local), cc.evJSON)
	cc.mu.Unlock()
	if !cc.srv.queue(cc) {
		cc.wakeWriter()
	}
}

// wakeWriter wakes cc's writer. A wake-up already pending covers this one:
// the writer's next flush takes every line appended so far.
func (cc *conn) wakeWriter() {
	select {
	case cc.wake <- struct{}{}:
	default:
	}
}

// writeLoop is cc's writer: it writes the lines deliveries leave while no
// wire publish is in flight, so that only it waits on a peer that stopped
// reading. It exits once cc is dead: after a failed write, or when the
// serve loop ends and wakes it.
func (cc *conn) writeLoop() {
	defer cc.srv.wg.Done()
	for range cc.wake {
		if cc.flush() != nil {
			return // cc is dead; its serve loop ends on its next reply
		}
	}
}

// flush writes the pending lines. A write error marks cc dead.
func (cc *conn) flush() error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return errDead
	}
	buf := cc.out
	cc.out = cc.spare[:0]
	cc.writing = len(buf) > 0
	cc.mu.Unlock()
	cc.spare = buf[:0]
	if len(buf) == 0 {
		return nil
	}
	_, err := cc.c.Write(buf)
	if cap(buf) > pendingCap { // a large burst of lines: do not keep its buffer
		cc.spare = nil
	}
	cc.mu.Lock()
	cc.writing = false
	if err != nil {
		cc.dead, cc.out = true, nil
	}
	cc.mu.Unlock()
	return err
}

// queue puts cc on the dirty list for the sweep of the wire publish in
// flight and reports true, or reports false when none is in flight.
func (srv *Server) queue(cc *conn) bool {
	srv.pendMu.Lock()
	defer srv.pendMu.Unlock()
	if srv.publishing == 0 {
		return false
	}
	if !cc.queued {
		cc.queued = true
		srv.dirty = append(srv.dirty, cc)
	}
	return true
}

// beginPublish marks a wire publish in flight: deliveries wait for its
// sweep.
func (srv *Server) beginPublish() {
	srv.pendMu.Lock()
	srv.publishing++
	srv.pendMu.Unlock()
}

// sweep ends a wire publish begun by beginPublish: it writes each
// connection on the dirty list once, except own, the publisher's, whose
// lines leave with its reply.
func (srv *Server) sweep(own *conn) {
	srv.sweepMu.Lock()
	defer srv.sweepMu.Unlock()
	srv.pendMu.Lock()
	srv.publishing--
	dirty := srv.dirty
	srv.dirty = srv.swept
	for _, cc := range dirty {
		cc.queued = false
	}
	srv.pendMu.Unlock()
	for i, cc := range dirty {
		if cc != own {
			_ = cc.flush() // a failure marks cc dead; its serve loop ends on its next reply
		}
		dirty[i] = nil
	}
	srv.swept = dirty[:0]
}

// NewServer wraps an already-running network. The caller retains ownership
// of the network (Close does not stop it).
func NewServer(network *core.Network, s *schema.Schema) *Server {
	return &Server{net: network, schema: s, conns: make(map[*conn]struct{}),
		shed: network.Metrics().Counter("wire_deliveries_shed")}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serve loops run in background goroutines.
func (srv *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv.ln = ln
	srv.wg.Add(1)
	go srv.acceptLoop()
	return ln.Addr().String(), nil
}

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		c, err := srv.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := &conn{srv: srv, c: c, wake: make(chan struct{}, 1)}
		srv.mu.Lock()
		srv.conns[cc] = struct{}{}
		srv.mu.Unlock()
		srv.wg.Add(2)
		go srv.serve(cc)
		go cc.writeLoop()
	}
}

// Close stops the listener and closes all connections.
func (srv *Server) Close() error {
	var err error
	if srv.ln != nil {
		err = srv.ln.Close()
	}
	srv.mu.Lock()
	for cc := range srv.conns {
		cc.c.Close()
	}
	srv.mu.Unlock()
	srv.wg.Wait()
	return err
}

func (srv *Server) serve(cc *conn) {
	defer srv.wg.Done()
	defer func() {
		srv.mu.Lock()
		delete(srv.conns, cc)
		srv.mu.Unlock()
		cc.mu.Lock()
		cc.dead, cc.out = true, nil
		cc.mu.Unlock()
		cc.wakeWriter()
		cc.c.Close()
		// Nobody can receive these subscriptions' deliveries any more.
		for _, key := range cc.subs {
			b, l := subid.KeyParts(key)
			_ = srv.net.Unsubscribe(subid.ID{Broker: b, Local: l}) // fails only for an id another connection already removed
		}
	}()
	scanner := bufio.NewScanner(cc.c)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := parseRequest(line, &req); err != nil {
			_ = cc.send(&Response{Type: "reply", Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		resp := srv.handle(cc, &req)
		if err := cc.send(&resp); err != nil {
			return
		}
	}
	// A request line past the scanner's limit aborts the scan without an
	// error reply; tell the client why its connection is going away
	// instead of silently hanging its FIFO reply matching.
	if errors.Is(scanner.Err(), bufio.ErrTooLong) {
		_ = cc.send(&Response{Type: "reply", Error: "request too large (limit 1 MiB)"})
	}
}

func (srv *Server) handle(cc *conn, req *Request) Response {
	resp := Response{Type: "reply", Op: req.Op}
	fail := func(err error) Response {
		resp.Error = err.Error()
		return resp
	}
	switch req.Op {
	case "ping":
		return resp
	case "subscribe":
		sub, err := schema.ParseSubscription(srv.schema, req.Expr)
		if err != nil {
			return fail(err)
		}
		id, err := srv.net.Subscribe(topology.NodeID(req.Broker), sub, cc.deliver)
		if err != nil {
			return fail(err)
		}
		cc.subs = append(cc.subs, id.Key())
		resp.Broker = int(id.Broker)
		resp.Local = uint32(id.Local)
		return resp
	case "unsubscribe":
		id := subid.ID{Broker: subid.BrokerID(req.Broker), Local: subid.LocalID(req.Local)}
		if err := srv.net.Unsubscribe(id); err != nil {
			return fail(err)
		}
		if i := slices.Index(cc.subs, id.Key()); i >= 0 {
			cc.subs = slices.Delete(cc.subs, i, i+1)
		}
		return resp
	case "publish":
		ev, err := schema.ParseEvent(srv.schema, req.Event)
		if err != nil {
			return fail(err)
		}
		srv.beginPublish()
		if err = srv.net.Publish(topology.NodeID(req.Broker), ev); err == nil {
			// Block until routing completes so that every delivery of this
			// publish is buffered before the sweep writes it.
			srv.net.Flush()
		}
		srv.sweep(cc)
		if err != nil {
			return fail(err)
		}
		return resp
	case "propagate":
		hops, err := srv.net.Propagate()
		if err != nil {
			return fail(err)
		}
		resp.Hops = hops
		return resp
	case "extend":
		t, err := schema.ParseType(req.AttrType)
		if err != nil {
			return fail(err)
		}
		id, err := srv.net.ExtendSchema(req.Attr, t)
		if err != nil {
			return fail(err)
		}
		resp.Local = uint32(id)
		return resp
	case "stats":
		st := srv.net.Stats()
		resp.Stats = map[string]int64{
			"messages":         st.TotalMessages(),
			"bytes":            st.TotalBytes(),
			"summary_messages": st.Messages[netsim.KindSummary],
			"summary_bytes":    st.Bytes[netsim.KindSummary],
			"event_messages":   st.Messages[netsim.KindEvent],
			"deliver_messages": st.Messages[netsim.KindDeliver],
			"dropped":          st.TotalDropped(),
			"summary_dropped":  st.Dropped[netsim.KindSummary],
			"errors":           st.TotalErrors(),
		}
		// Churn health across all brokers: retractions awaiting the next
		// period, ids fenced until the next full sync, and amortized
		// compactions run.
		var pendingRetracts, fencedIDs, compactions int64
		for i := 0; i < srv.net.Len(); i++ {
			bst := srv.net.Broker(topology.NodeID(i)).Stats()
			pendingRetracts += int64(bst.PendingRetracts)
			fencedIDs += int64(bst.FencedIDs)
			compactions += bst.Compactions
		}
		resp.Stats["pending_retracts"] = pendingRetracts
		resp.Stats["fenced_ids"] = fencedIDs
		resp.Stats["compactions"] = compactions
		return resp
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

// Client is a minimal client for the wire protocol. Deliveries are
// dispatched to the handler passed to Dial; replies are matched to
// requests in FIFO order (the protocol is synchronous per connection).
type Client struct {
	c       net.Conn
	scanner *bufio.Scanner
	mu      sync.Mutex // serializes request/reply exchanges
	buf     []byte     // request line; guarded by mu
	onEvent func(broker int, local uint32, event string)
	replies chan Response
	readErr error
	done    chan struct{}
}

// Dial connects to a wire server. onEvent receives pushed deliveries (may
// be nil to ignore them).
func Dial(addr string, onEvent func(broker int, local uint32, event string)) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:       c,
		onEvent: onEvent,
		replies: make(chan Response, 16),
		done:    make(chan struct{}),
	}
	cl.scanner = bufio.NewScanner(c)
	// A delivery line echoes an event text that arrived in a request of
	// up to 1 MiB, and JSON escaping can grow that text up to six-fold, so
	// the line limit is far above the server's request limit.
	cl.scanner.Buffer(make([]byte, 0, 64*1024), 64<<20)
	go cl.readLoop()
	return cl, nil
}

func (cl *Client) readLoop() {
	defer close(cl.done)
	for cl.scanner.Scan() {
		var resp Response
		if err := parseResponse(cl.scanner.Bytes(), &resp); err != nil {
			cl.readErr = err
			break
		}
		if resp.Type == "delivery" {
			if cl.onEvent != nil {
				cl.onEvent(resp.Broker, resp.Local, resp.Event)
			}
			continue
		}
		cl.replies <- resp
	}
	if err := cl.scanner.Err(); err != nil && cl.readErr == nil {
		cl.readErr = err
	}
	close(cl.replies)
}

// Close closes the connection.
func (cl *Client) Close() error { return cl.c.Close() }

// roundTrip sends one request and waits for its reply.
func (cl *Client) roundTrip(req Request) (Response, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.buf = appendRequestLine(cl.buf[:0], &req)
	if _, err := cl.c.Write(cl.buf); err != nil {
		return Response{}, err
	}
	resp, ok := <-cl.replies
	if !ok {
		if cl.readErr != nil {
			return Response{}, cl.readErr
		}
		return Response{}, errors.New("wire: connection closed")
	}
	if resp.Error != "" {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// Ping checks liveness.
func (cl *Client) Ping() error {
	_, err := cl.roundTrip(Request{Op: "ping"})
	return err
}

// Subscribe registers a subscription at the given broker; deliveries
// arrive via the Dial handler. It returns the (broker, local) id.
func (cl *Client) Subscribe(brokerID int, expr string) (int, uint32, error) {
	resp, err := cl.roundTrip(Request{Op: "subscribe", Broker: brokerID, Expr: expr})
	if err != nil {
		return 0, 0, err
	}
	return resp.Broker, resp.Local, nil
}

// Unsubscribe removes a subscription created on this server.
func (cl *Client) Unsubscribe(brokerID int, local uint32) error {
	_, err := cl.roundTrip(Request{Op: "unsubscribe", Broker: brokerID, Local: local})
	return err
}

// Publish injects an event at the given broker and waits until routing
// completes.
func (cl *Client) Publish(brokerID int, event string) error {
	_, err := cl.roundTrip(Request{Op: "publish", Broker: brokerID, Event: event})
	return err
}

// Propagate triggers one Algorithm 2 period and returns its hop count.
func (cl *Client) Propagate() (int, error) {
	resp, err := cl.roundTrip(Request{Op: "propagate"})
	return resp.Hops, err
}

// Stats fetches the server's bus accounting.
func (cl *Client) Stats() (map[string]int64, error) {
	resp, err := cl.roundTrip(Request{Op: "stats"})
	return resp.Stats, err
}

// ExtendSchema appends an attribute to the server's schema at runtime
// (schema evolution) and returns its attribute id.
func (cl *Client) ExtendSchema(name, attrType string) (uint32, error) {
	resp, err := cl.roundTrip(Request{Op: "extend", Attr: name, AttrType: attrType})
	return resp.Local, err
}

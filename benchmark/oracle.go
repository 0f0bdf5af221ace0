package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// buildOracle computes, by brute force over the raw subscription list, the
// subscriptions every pool event must reach. It shares no code with the
// engine beyond schema.Subscription.Matches: no summaries, no brokers.
func buildOracle(subs []*schema.Subscription, pool []*schema.Event) [][]int32 {
	out := make([][]int32, len(pool))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(pool); k += workers {
				for i, s := range subs {
					if s.Matches(pool[k]) {
						out[k] = append(out[k], int32(i))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// Checker modes: what a delivery callback does with a delivery.
const (
	modeOff     int32 = iota // isolated per-layer calls: deliveries are ignored
	modeLatency              // one event in flight: record (seq, sub, latency)
	modeCount                // a window in flight: count deliveries per sub
)

// checker receives every delivery the engine makes to the harness's
// subscriptions and holds it against the oracle. In latency phases the
// delivered (seq, subscription) set of every event must equal the
// oracle's exactly; in saturation phases every subscription's delivery
// count must. Deliveries to churning subscriptions are checked for
// soundness (the subscription really matches the event) on the spot.
type checker struct {
	in    *inputs
	clock time.Time
	mode  atomic.Int32
	tr    atomic.Pointer[tracer] // nil while untraced; the TCP read loop loads it

	// Latency mode: the event in flight and what has been delivered for
	// it. Callbacks run on broker goroutines (over TCP: on the client's
	// read loop, which may still be delivering after a timed-out wait), so
	// mu guards all of it.
	mu       sync.Mutex
	cur      int64         // bench_seq in flight, -1 between events
	curSpan  int32         // the in-flight event's root span
	pubStart int64         // ns since clock
	want     int           // deliveries the oracle expects
	arrived  chan struct{} // TCP only: signalled when len(got) reaches want
	got      []int32
	lat      []int64

	// Count mode.
	perSub      []atomic.Int32
	countEvents int     // events published in count mode: whole passes by the end
	wantPerSub  []int32 // deliveries per sub over one pass of the pool

	spurious atomic.Int64 // wrong seq, overflow, or unsound churn delivery

	attempted  int64
	failed     int64
	deliverLat []int64 // one sample per base-population delivery
	ownerCalls int64   // Σ distinct owning brokers over one pool cycle
}

func newChecker(in *inputs, tr *tracer) *checker {
	c := &checker{in: in, clock: time.Now(), arrived: make(chan struct{}, 1)}
	c.tr.Store(tr)
	c.perSub = make([]atomic.Int32, len(in.subs))
	c.wantPerSub = make([]int32, len(in.subs))
	most := 0
	n := in.graph.Len()
	for _, subs := range in.oracle {
		most = max(most, len(subs))
		owners := map[int32]struct{}{}
		for _, i := range subs {
			c.wantPerSub[i]++
			owners[i%int32(n)] = struct{}{}
		}
		c.ownerCalls += int64(len(owners))
	}
	c.got = make([]int32, 0, 2*most+16)
	c.lat = make([]int64, 0, cap(c.got))
	c.cur, c.curSpan = -1, -1
	return c
}

func (c *checker) now() int64 { return int64(time.Since(c.clock)) }

// base returns the delivery callback of base-population subscription i.
func (c *checker) base(i int32) func(subid.ID, *schema.Event) {
	return func(_ subid.ID, ev *schema.Event) {
		v, _ := ev.Value(c.in.seq)
		c.deliver(i, int64(v.Num))
	}
}

// deliver records one delivery of the event stamped seq to base
// subscription i.
func (c *checker) deliver(i int32, seq int64) {
	switch c.mode.Load() {
	case modeCount:
		c.perSub[i].Add(1)
	case modeLatency:
		now := c.now()
		c.mu.Lock()
		if seq != c.cur || len(c.got) == cap(c.got) {
			c.mu.Unlock()
			c.spurious.Add(1)
			return
		}
		c.got = append(c.got, i)
		c.lat = append(c.lat, now-c.pubStart)
		if len(c.got) == c.want {
			select {
			case c.arrived <- struct{}{}:
			default:
			}
		}
		root := c.curSpan
		c.mu.Unlock()
		if tr := c.tr.Load(); tr != nil {
			tr.add("deliver.callback", "harness", now, c.now(), root, int32(seq))
		}
	}
}

// churning returns the delivery callback of a churning subscription: it
// may or may not be visible to a given event, so only soundness is
// checked.
func (c *checker) churning(sub *schema.Subscription) func(subid.ID, *schema.Event) {
	return func(_ subid.ID, ev *schema.Event) {
		if c.mode.Load() != modeOff && !sub.Matches(ev) {
			c.spurious.Add(1)
		}
	}
}

// begin opens the latency-mode window of pool event k and returns the
// publish timestamp deliveries are measured from.
func (c *checker) begin(k int, rootSpan int32) int64 {
	select {
	case <-c.arrived:
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got, c.lat = c.got[:0], c.lat[:0]
	c.want, c.curSpan, c.cur = len(c.in.oracle[k]), rootSpan, int64(k)
	c.pubStart = c.now()
	return c.pubStart
}

// await blocks until every delivery the oracle expects for the event in
// flight has arrived, or the timeout passes. The in-process engine has
// delivered everything when Flush returns; over TCP the pushed delivery
// lines may trail the publish reply.
func (c *checker) await(timeout time.Duration) {
	c.mu.Lock()
	short := len(c.got) < c.want
	c.mu.Unlock()
	if !short {
		return
	}
	select {
	case <-c.arrived:
	case <-time.After(timeout):
	}
}

// finish closes the window of pool event k: the delivered set must equal
// the oracle's (no missing, duplicate or spurious delivery). opErr is the
// error of the publish operation itself, if any.
func (c *checker) finish(k int, opErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur = -1
	c.attempted++
	c.deliverLat = append(c.deliverLat, c.lat...)
	slices.Sort(c.got)
	if opErr != nil || !slices.Equal(c.got, c.in.oracle[k]) {
		c.failed++
	}
}

// settle folds the count-mode totals and the spurious counter into
// failed. Call once, after the last phase, with the bus quiescent.
func (c *checker) settle(busErrors int64) {
	passes := int64(c.countEvents / len(c.in.pool))
	for i := range c.perSub {
		d := int64(c.perSub[i].Load()) - passes*int64(c.wantPerSub[i])
		if d < 0 {
			d = -d
		}
		c.failed += d
	}
	c.failed += c.spurious.Load() + busErrors
	c.failed = min(c.failed, c.attempted)
}

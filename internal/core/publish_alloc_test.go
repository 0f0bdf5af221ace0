package core

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// fanoutLoop is the event path of the fanout-cw24 benchmark workload:
// CW24, 2 400 subscriptions of three constraints spread round-robin, one
// propagation period, then batches of fanoutBatch 10-attribute events at
// hit rate 0.9, published round-robin over the brokers and flushed.
type fanoutLoop struct {
	net        *Network
	events     []*schema.Event
	deliveries atomic.Int64
	next       int
}

const fanoutBatch = 512

func newFanoutLoop(tb testing.TB) *fanoutLoop {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.AttrsPerEvent, cfg.AttrsPerSub = 10, 3
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g := topology.CW24()
	l := &fanoutLoop{net: newNetwork(tb, g, gen.Schema())}
	for i := 0; i < 2400; i++ {
		if _, err := l.net.Subscribe(topology.NodeID(i%g.Len()), gen.Subscription(), func(subid.ID, *schema.Event) {
			l.deliveries.Add(1)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := l.net.Propagate(); err != nil {
		tb.Fatal(err)
	}
	l.events = make([]*schema.Event, fanoutBatch)
	for i := range l.events {
		l.events[i] = gen.Event(0.9)
	}
	return l
}

// publish publishes the next event of the pool, flushing after every
// fanoutBatch-th.
func (l *fanoutLoop) publish(tb testing.TB) {
	k := l.next % len(l.events)
	if err := l.net.Publish(topology.NodeID(k%l.net.Len()), l.events[k]); err != nil {
		tb.Fatal(err)
	}
	if l.next++; l.next%fanoutBatch == 0 {
		l.net.Flush()
	}
}

// batch publishes one whole batch and flushes it.
func (l *fanoutLoop) batch(tb testing.TB) {
	for range fanoutBatch {
		l.publish(tb)
	}
}

// TestPublishZeroAllocs: once warmed up, the whole event path — Publish,
// every hop's match and forward, the deliver multicast, every owner's
// exact re-match and the consumer call — allocates nothing, with metrics
// on and trace sampling off.
func TestPublishZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	l := newFanoutLoop(t)
	// A collection empties every sync.Pool, and the event and deliver
	// messages are pooled. A path that allocates nothing never triggers
	// one; the garbage of the fixture and of earlier tests would, so
	// collect it now and allow no other collection until the test ends.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 200 {
		l.batch(t) // grow every scratch and pooled message to its steady size
	}
	if l.deliveries.Load() == 0 {
		t.Fatal("the fixture delivers nothing; the allocation assertion would be vacuous")
	}
	if avg := testing.AllocsPerRun(20, func() { l.batch(t) }); avg != 0 {
		t.Fatalf("a batch of %d published events allocates %.0f objects, want 0", fanoutBatch, avg)
	}
	if st := l.net.Stats(); st.TotalDropped() != 0 || st.TotalErrors() != 0 {
		t.Fatalf("loss counters non-zero: %+v", st)
	}
}

// BenchmarkPublishFlushFanout times one event of the fanout loop, its share
// of the batch's Flush included.
func BenchmarkPublishFlushFanout(b *testing.B) {
	l := newFanoutLoop(b)
	l.batch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		l.publish(b)
	}
	l.net.Flush()
}

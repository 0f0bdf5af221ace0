package netsim

import (
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/topology"
)

// TestLinkFIFOAndExclusivity: at GOMAXPROCS=4, eight sources send numbered
// messages to eight receivers. Four sources are brokers whose handlers send
// a round on each message they get; four are outside goroutines that name
// those same brokers as their sender while the brokers run, which is the
// case where a hand-off slot is reached from outside its worker. Every
// receiver must see every source's numbers in ascending order, and no
// broker's handler may ever run on two workers at once.
func TestLinkFIFOAndExclusivity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		receivers = 8
		senders   = 4 // brokers receivers..receivers+senders-1
		outside   = 4
		rounds    = 200
	)
	b := NewBus(receivers + senders)
	defer b.Close()
	var active [receivers + senders]atomic.Int32
	exclusive := func(node topology.NodeID, h Handler) Handler {
		return func(m Message) {
			if n := active[node].Add(1); n != 1 {
				t.Errorf("broker %d's handler runs %d times at once", node, n)
			}
			h(m)
			active[node].Add(-1)
		}
	}
	msg := func(from topology.NodeID, to int, source byte, seq uint32) Message {
		return Message{From: from, To: topology.NodeID(to), Kind: KindEvent,
			Body: binary.LittleEndian.AppendUint32([]byte{source}, seq), Size: 5}
	}
	var seen [receivers][senders + outside]int64 // per receiver, the last number from each source
	for r := range receivers {
		for s := range seen[r] {
			seen[r][s] = -1
		}
		b.Start(topology.NodeID(r), exclusive(topology.NodeID(r), func(m Message) {
			body := m.Body.([]byte)
			source, seq := body[0], int64(binary.LittleEndian.Uint32(body[1:]))
			if seq <= seen[r][source] {
				t.Errorf("receiver %d: source %d sent %d after %d", r, source, seq, seen[r][source])
			}
			seen[r][source] = seq
		}))
	}
	for s := range senders {
		node := topology.NodeID(receivers + s)
		next := uint32(0)
		b.Start(node, exclusive(node, func(Message) {
			for r := range receivers {
				_ = b.Send(msg(node, r, byte(s), next))
			}
			next++
		}))
	}
	var wg sync.WaitGroup
	for g := range outside {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := topology.NodeID(receivers + g%senders)
			for seq := range uint32(rounds) {
				// A round for one handler sender, then one of this goroutine's own.
				_ = b.Send(Message{From: from, To: from, Kind: KindControl})
				for r := range receivers {
					if err := b.Send(msg(from, r, byte(senders+g), seq)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	b.Quiesce()
	for r := range receivers {
		for s, last := range seen[r] {
			if want := int64(rounds - 1); last != want {
				t.Errorf("receiver %d: last number from source %d is %d, want %d", r, s, last, want)
			}
		}
	}
}

// TestPostNeverTakesTheSendersSlot: with one worker, broker 0's handler
// waits on the test, so the worker sits inside a handler with an open
// hand-off slot. An outside Post naming broker 0 as the sender must
// leave that slot empty and send broker 1 through the run queue, where the
// same worker takes it once broker 0's handler returns.
func TestPostNeverTakesTheSendersSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := NewBus(2)
	defer b.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	b.Start(0, func(Message) {
		close(entered)
		<-release
	})
	reached := make(chan struct{})
	b.Start(1, func(Message) { close(reached) })
	if err := b.Send(Message{From: 0, To: 0, Kind: KindEvent}); err != nil {
		t.Fatal(err)
	}
	<-entered
	w := b.boxes[0].runner.Load()
	err := b.Post(Message{From: 0, To: 1, Kind: KindSummary})
	slot := w.slot.Load()
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if slot != nil {
		t.Fatalf("an outside send took the hand-off slot of broker 0's worker (slot holds broker 1: %v)", slot == b.boxes[1])
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Error("broker 1 never ran after broker 0's handler returned")
	}
	b.Quiesce()
}

// TestRunnableBrokerIsNotStarved: with one worker, brokers 0 and 1 resend to
// themselves from every handler call, so each always has a backlog. Broker
// 2 must still run: a worker keeps a broker only for a bounded streak
// while others wait.
func TestRunnableBrokerIsNotStarved(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := NewBus(3)
	defer b.Close()
	var stop atomic.Bool
	for id := range topology.NodeID(2) {
		b.Start(id, func(Message) {
			if !stop.Load() {
				_ = b.Send(Message{From: id, To: id, Kind: KindEvent})
			}
		})
	}
	ran := make(chan struct{})
	b.Start(2, func(Message) { close(ran) })
	for id := range topology.NodeID(3) {
		if err := b.Send(Message{From: id, To: id, Kind: KindEvent}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Error("broker 2 never ran beside two brokers that always have a backlog")
	}
	stop.Store(true)
	b.Quiesce()
}

// steppedTrace runs a small gossip on a stepped bus: every broker forwards
// each message it gets to its two neighbours on a ring until the hop budget
// in the payload runs out. It returns the (broker, payload) order in which
// the handlers ran, and the size of each run.
func steppedTrace(seed int64) (order [][2]byte, runs []int) {
	const n = 5
	b := NewSteppedBus(n, seed)
	defer b.Close()
	for i := range topology.NodeID(n) {
		b.StartBatch(i, func(ms []Message) {
			runs = append(runs, len(ms))
			for _, m := range ms {
				order = append(order, [2]byte{byte(i), m.Body.([]byte)[0]})
				if hops := m.Body.([]byte)[0]; hops > 0 {
					for _, to := range []topology.NodeID{(i + 1) % n, (i + n - 1) % n} {
						_ = b.Send(Message{From: i, To: to, Kind: KindEvent, Body: []byte{hops - 1}, Size: 1})
					}
				}
			}
		})
	}
	for i := range topology.NodeID(n) {
		_ = b.Send(Message{From: i, To: i, Kind: KindEvent, Body: []byte{6}, Size: 1})
	}
	b.Quiesce()
	return order, runs
}

// TestSteppedBusReplaysItsSeed: a stepped bus runs every handler inside
// Quiesce, on the caller's goroutine; the same seed replays the same
// schedule, and different seeds explore different ones — brokers, run
// lengths or both — while handling the same messages.
func TestSteppedBusReplaysItsSeed(t *testing.T) {
	first, firstRuns := steppedTrace(7)
	again, againRuns := steppedTrace(7)
	if !slices.Equal(first, again) || !slices.Equal(firstRuns, againRuns) {
		t.Fatal("one seed gave two schedules")
	}
	sorted := slices.Clone(first)
	slices.SortFunc(sorted, func(a, b [2]byte) int { return int(a[0])<<8 | int(a[1]) - (int(b[0])<<8 | int(b[1])) })
	distinct := 0
	for seed := int64(1); seed <= 6; seed++ {
		order, runs := steppedTrace(seed)
		if !slices.Equal(order, first) || !slices.Equal(runs, firstRuns) {
			distinct++
		}
		got := slices.Clone(order)
		slices.SortFunc(got, func(a, b [2]byte) int { return int(a[0])<<8 | int(a[1]) - (int(b[0])<<8 | int(b[1])) })
		if !slices.Equal(got, sorted) {
			t.Fatalf("seed %d handled another set of messages", seed)
		}
		for _, r := range runs {
			if r < 1 || r > maxBatch {
				t.Fatalf("seed %d: a run of %d messages", seed, r)
			}
		}
	}
	if distinct == 0 {
		t.Fatal("six seeds gave the schedule of seed 7; stepping explores nothing")
	}
}

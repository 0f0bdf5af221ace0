// Layered fault plane: addressable network-fault primitives for chaos
// scenarios. Earlier revisions offered exactly one hook — SetDropFunc —
// so any test that wanted a partition AND a loss rate had to compose the
// predicates by hand, and two scenario phases touching the hook
// concurrently would clobber each other. The fault plane keeps each
// primitive in its own layer:
//
//   - Partition(setA, setB): messages crossing between the two broker
//     sets are dropped, symmetrically. Partitions stack; Heal clears
//     them all (and nothing else).
//   - SetLoss(kind, rate, seed): seeded probabilistic loss for one
//     message kind. rate ≤ 0 removes the rule; rate ≥ 1 drops every
//     message of the kind deterministically.
//   - Pause(id) / Resume(id): a paused broker's incoming messages are
//     parked (counted as sent — they are on a slow wire, not lost) and
//     delivered in order on Resume. Parked messages do not count as
//     in-flight, so Quiesce does not wait for a paused broker.
//   - SetDropFunc(fn): the custom-predicate layer, for drops no
//     primitive above expresses (by sender, every third message).
//
// All layers are evaluated in one faultMu critical section on the send
// path (drop layers first, pause last), and each mutator touches only
// its own layer — concurrent scenario phases cannot clobber each other.
// Drops are accounted exactly like SetDropFunc drops always were:
// Dropped/DroppedBytes counters and a flight EvDrop record.
package netsim

import (
	"fmt"
	"math/rand"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/topology"
)

// faultState is the bus's layered fault configuration, guarded by
// Bus.faultMu.
type faultState struct {
	custom func(Message) bool
	cuts   []cut
	loss   [KindControl + 1]lossRule
	// held parks messages destined to paused brokers; map presence marks
	// the broker paused even while no messages are parked.
	held map[topology.NodeID][]Message
}

// cut is one partition: traffic between side a and side b is dropped in
// both directions; traffic within a side (or touching neither side)
// flows.
type cut struct {
	a, b []bool
}

func (c cut) severs(from, to topology.NodeID) bool {
	if int(from) >= len(c.a) || int(to) >= len(c.a) || from < 0 || to < 0 {
		return false
	}
	return (c.a[from] && c.b[to]) || (c.b[from] && c.a[to])
}

// lossRule is a per-kind probabilistic drop with its own seeded RNG, so
// a scenario's loss sequence is reproducible independent of every other
// layer.
type lossRule struct {
	rate float64
	rng  *rand.Rand
}

// Faults is a handle on one bus's fault plane. It is a value type — copy
// freely; all state lives in the bus.
type Faults struct {
	b *Bus
}

// Faults returns the bus's fault-plane handle.
func (b *Bus) Faults() Faults { return Faults{b: b} }

// refreshFaultGate recomputes the hot-path "any layer active" bit.
func (b *Bus) refreshFaultGate() {
	b.faultMu.Lock()
	fs := &b.faults
	active := fs.custom != nil || len(fs.cuts) > 0 || len(fs.held) > 0
	if !active {
		for k := range fs.loss {
			if fs.loss[k].rate > 0 {
				active = true
				break
			}
		}
	}
	b.faultMu.Unlock()
	b.hasFault.Store(active)
}

// applyFaults evaluates the fault layers for one send. It returns true
// when the message was consumed (dropped or parked); the caller then
// skips normal delivery. Drop accounting runs inside the faultMu
// critical section so a custom hook's own counters always agree with
// Stats.Dropped; journaling runs outside it.
func (b *Bus) applyFaults(m Message) bool {
	b.faultMu.Lock()
	fs := &b.faults
	drop := fs.custom != nil && fs.custom(m)
	if !drop {
		for _, c := range fs.cuts {
			if c.severs(m.From, m.To) {
				drop = true
				break
			}
		}
	}
	if !drop && int(m.Kind) < len(fs.loss) {
		if lr := &fs.loss[m.Kind]; lr.rate > 0 && lr.rng.Float64() < lr.rate {
			drop = true
		}
	}
	if drop {
		b.dropped.add(m.Kind, 1)
		b.droppedBytes.add(m.Kind, int64(m.Size))
		b.faultMu.Unlock()
		if rec := b.rec.Load(); rec != nil {
			rec.Record(flight.EvDrop, int(m.To), int64(m.Kind), int64(m.Size), int64(m.From), m.Kind.String())
		}
		return true
	}
	if qs, paused := fs.held[m.To]; paused {
		fs.held[m.To] = append(qs, m)
		b.faultMu.Unlock()
		// Parked messages count as sent — they are delayed, not lost — so
		// byte accounting still reconciles against sender-side counters.
		b.messages.add(m.Kind, 1)
		b.bytes.add(m.Kind, int64(m.Size))
		return true
	}
	b.faultMu.Unlock()
	return false
}

// Partition severs traffic between setA and setB (symmetric, both
// directions) until Heal. Partitions stack: each call adds one cut. The
// sides must be non-empty, disjoint, and in range.
func (f Faults) Partition(setA, setB []topology.NodeID) error {
	b := f.b
	if len(setA) == 0 || len(setB) == 0 {
		return fmt.Errorf("netsim: partition wants two non-empty sides")
	}
	n := len(b.boxes)
	c := cut{a: make([]bool, n), b: make([]bool, n)}
	for _, id := range setA {
		if int(id) < 0 || int(id) >= n {
			return fmt.Errorf("netsim: partition side A node %d out of range", id)
		}
		c.a[id] = true
	}
	for _, id := range setB {
		if int(id) < 0 || int(id) >= n {
			return fmt.Errorf("netsim: partition side B node %d out of range", id)
		}
		if c.a[id] {
			return fmt.Errorf("netsim: node %d on both sides of the partition", id)
		}
		c.b[id] = true
	}
	b.faultMu.Lock()
	b.faults.cuts = append(b.faults.cuts, c)
	b.faultMu.Unlock()
	b.refreshFaultGate()
	return nil
}

// Heal removes every partition. Loss rates, paused brokers, and the
// custom drop hook are untouched.
func (f Faults) Heal() {
	f.b.faultMu.Lock()
	f.b.faults.cuts = nil
	f.b.faultMu.Unlock()
	f.b.refreshFaultGate()
}

// SetLoss installs (or with rate ≤ 0 removes) a probabilistic loss rule
// for one message kind. The rule's RNG is seeded here, so a scenario's
// drop sequence is reproducible; rate ≥ 1 drops deterministically.
func (f Faults) SetLoss(k Kind, rate float64, seed int64) {
	b := f.b
	b.faultMu.Lock()
	if int(k) < len(b.faults.loss) {
		if rate <= 0 {
			b.faults.loss[k] = lossRule{}
		} else {
			b.faults.loss[k] = lossRule{rate: rate, rng: rand.New(rand.NewSource(seed))}
		}
	}
	b.faultMu.Unlock()
	b.refreshFaultGate()
}

// Pause parks all traffic destined to the broker until Resume. Parked
// messages are counted as sent, keep their arrival order, and do not
// block Quiesce. Pausing an already-paused broker is a no-op.
func (f Faults) Pause(id topology.NodeID) error {
	b := f.b
	if int(id) < 0 || int(id) >= len(b.boxes) {
		return fmt.Errorf("netsim: pause target %d out of range", id)
	}
	b.faultMu.Lock()
	if b.faults.held == nil {
		b.faults.held = make(map[topology.NodeID][]Message)
	}
	if _, ok := b.faults.held[id]; !ok {
		b.faults.held[id] = nil
	}
	b.faultMu.Unlock()
	b.refreshFaultGate()
	return nil
}

// Resume un-pauses the broker and delivers its parked messages in
// arrival order. Resuming a broker that is not paused is a no-op.
func (f Faults) Resume(id topology.NodeID) error {
	b := f.b
	if int(id) < 0 || int(id) >= len(b.boxes) {
		return fmt.Errorf("netsim: resume target %d out of range", id)
	}
	b.faultMu.Lock()
	qs, ok := b.faults.held[id]
	if ok {
		delete(b.faults.held, id)
	}
	b.faultMu.Unlock()
	b.refreshFaultGate()
	if !ok {
		return nil
	}
	for _, m := range qs {
		b.inflight.Add(1)
		b.enqueue(m, nil) // never a hand-off: the caller is no worker
	}
	return nil
}

// Paused reports whether the broker is currently paused, and how many
// messages are parked for it. A test hook: the netsim and core tests
// check a pause with it.
func (f Faults) Paused(id topology.NodeID) (paused bool, parked int) {
	f.b.faultMu.Lock()
	defer f.b.faultMu.Unlock()
	qs, ok := f.b.faults.held[id]
	return ok, len(qs)
}

// Clear resets the whole fault plane: partitions healed, loss rules
// removed, the custom hook cleared, and every paused broker resumed
// (delivering its parked messages). A test hook: the netsim and core
// tests reset faults with it.
func (f Faults) Clear() {
	b := f.b
	b.faultMu.Lock()
	b.faults.custom = nil
	b.faults.cuts = nil
	for k := range b.faults.loss {
		b.faults.loss[k] = lossRule{}
	}
	var pausedIDs []topology.NodeID
	for id := range b.faults.held {
		pausedIDs = append(pausedIDs, id)
	}
	b.faultMu.Unlock()
	for _, id := range pausedIDs {
		_ = f.Resume(id)
	}
	b.refreshFaultGate()
}

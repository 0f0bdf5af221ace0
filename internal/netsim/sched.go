package netsim

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Scheduling. No broker owns a goroutine. A broker is runnable when its
// mailbox holds messages and no worker holds it; workers take runnable
// brokers one at a time and run the broker's handler on a drained run of
// its mailbox. Who holds a broker is one flag under the mailbox lock
// (mailbox.scheduled), so a handler never runs on two workers at once and
// a mailbox drains in arrival order: per-link FIFO is the mailbox's.
//
// A broker a handler makes runnable takes the running worker's hand-off
// slot and runs next on that worker, with no wake-up; a later one displaces
// it to the run queue. A serial chain of hand-offs — an event's walk —
// therefore stays on one worker, while a run that wakes many brokers
// spreads all but the last. Only a broker that joins the run queue while a
// worker is idle wakes a worker.

// maxBatch bounds how many pending messages one run drains. A bound keeps a
// deep backlog from delaying the in-flight retirement Quiesce waits on. 64 is the one value tried; it was not swept.
const maxBatch = 64

// maxStreak is how many runs in a row a worker may give brokers it did not
// take from the run queue — one with a backlog that it keeps, or one a run
// handed it — while brokers wait in the queue. Then the broker goes to the
// back of the queue and the worker takes the head, so no runnable broker
// waits without bound while others keep their workers. 16 is the one value
// tried.
const maxStreak = 16

// mailbox is one broker's unbounded FIFO and its scheduling state.
type mailbox struct {
	mu sync.Mutex
	// queue[head:] is pending, oldest first. Drained slots are cleared, and
	// an append to a full array first reclaims them if they are at least
	// half of it, so a steady backlog reuses one array.
	queue  []Message
	head   int
	closed bool
	h      BatchHandler // nil until StartBatch
	// scheduled is set from the moment the broker becomes runnable until a
	// run finds its queue empty. Meanwhile the broker is in exactly one
	// place: the run queue, a hand-off slot, or a worker's hands.
	scheduled bool
	// runner is the worker inside h, nil between runs: a send naming this
	// broker as its sender hands off through that worker's slot.
	runner atomic.Pointer[worker]
}

// push appends msg. ok is false on a closed mailbox; runnable reports that
// msg made an idle, started broker runnable, which the caller must then
// schedule.
func (m *mailbox) push(msg Message) (ok, runnable bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, false
	}
	if len(m.queue) == cap(m.queue) && m.head > 0 && 2*m.head >= len(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, msg)
	if m.h != nil && !m.scheduled {
		m.scheduled = true
		return true, true
	}
	return true, false
}

// drain moves up to limit pending messages into buf, in arrival order,
// without blocking.
func (m *mailbox) drain(buf []Message, limit int) []Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	pending := m.queue[m.head:]
	n := min(limit, len(pending))
	buf = append(buf, pending[:n]...)
	clear(pending[:n]) // keep no reference to a body the handler now owns
	m.head += n
	if m.head == len(m.queue) {
		// Drained: keep the array, or every push after a drain — each hop
		// of a walk with one event in flight — allocates a new one.
		m.queue, m.head = m.queue[:0], 0
	}
	return buf
}

// settle ends a run. With messages pending the broker stays scheduled and
// settle reports the backlog, which the caller must run or queue;
// otherwise the broker becomes idle.
func (m *mailbox) settle() (backlog bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) > m.head {
		return true
	}
	m.scheduled = false
	return false
}

// worker runs brokers, one run at a time.
type worker struct {
	s *sched
	// slot is the hand-off slot: open — nil, or the broker a send handed
	// over — only while the worker is inside a handler, slotShut otherwise,
	// so nothing is ever handed to a worker that will not look.
	slot atomic.Pointer[mailbox]
	// streak counts runs since the worker last took from the run queue.
	streak int
	buf    []Message
}

// slotShut marks a hand-off slot closed.
var slotShut = new(mailbox)

// handOff puts mb in w's slot if it is open. A broker it displaces goes to
// the run queue.
func (w *worker) handOff(mb *mailbox) bool {
	for {
		old := w.slot.Load()
		if old == slotShut {
			return false
		}
		if w.slot.CompareAndSwap(old, mb) {
			if old != nil {
				w.s.enqueue(old)
			}
			return true
		}
	}
}

// run hands the broker's handler up to limit pending messages and retires
// them. It returns the broker a send of the run handed over, if any, and
// whether mb has a backlog (and is still this worker's to place). The
// messages retire only once mb is settled, so when Quiesce returns every
// broker that handled them is idle again.
func (w *worker) run(mb *mailbox, limit int) (handed *mailbox, backlog bool) {
	w.buf = mb.drain(w.buf[:0], limit)
	n := len(w.buf)
	if n > 0 {
		mb.runner.Store(w)
		w.slot.Store(nil)
		mb.h(w.buf)
		handed = w.slot.Swap(slotShut)
		mb.runner.Store(nil)
		clear(w.buf)
	}
	backlog = mb.settle()
	w.s.bus.doneInflight(int64(n))
	return handed, backlog
}

// sched is the bus's scheduler. Pooled (rng nil), up to GOMAXPROCS workers
// start as the run queue needs them, park when it is empty and exit when
// the bus closes; a handler never blocks (see StartBatch), so a worker
// inside one always comes back and no spare is needed. Stepped, there is
// one worker, driven by Quiesce on the caller's goroutine, which
// draws each (broker, run length) pair from rng.
type sched struct {
	bus  *Bus
	mu   sync.Mutex
	wake sync.Cond // parked workers wait here, on mu
	// q[head:] is the run queue: runnable brokers no worker holds, oldest
	// first. waiting mirrors its length for lock-free reads.
	q       []*mailbox
	head    int
	waiting atomic.Int32
	closed  bool

	max     int // GOMAXPROCS when the bus was made
	workers int // workers started
	idle    int // parked workers no enqueue has woken yet
	done    sync.WaitGroup

	rng     *rand.Rand // stepped mode's choices; nil when pooled
	stepper *worker
	stepMu  sync.Mutex // one Quiesce steps at a time
}

func newSched(b *Bus, rng *rand.Rand) *sched {
	s := &sched{bus: b, max: runtime.GOMAXPROCS(0), rng: rng}
	s.wake.L = &s.mu
	if rng != nil {
		s.stepper = s.newWorker()
	}
	return s
}

func (s *sched) newWorker() *worker {
	w := &worker{s: s}
	w.slot.Store(slotShut)
	return w
}

// ready schedules a broker a send just made runnable: through the slot of
// the worker running the sender, if that worker is inside a handler, else
// through the run queue.
func (s *sched) ready(mb *mailbox, sender *worker) {
	if sender != nil && sender.handOff(mb) {
		return
	}
	s.enqueue(mb)
}

func (s *sched) enqueue(mb *mailbox) {
	s.mu.Lock()
	s.pushLocked(mb)
	s.mu.Unlock()
}

// pushLocked appends mb to the run queue and, pooled, finds it a worker: it
// wakes an idle one, or starts one while fewer than max run. The caller
// holds mu.
func (s *sched) pushLocked(mb *mailbox) {
	if s.closed {
		return
	}
	if s.head > 0 && len(s.q) == cap(s.q) {
		n := copy(s.q, s.q[s.head:])
		clear(s.q[n:])
		s.q, s.head = s.q[:n], 0
	}
	s.q = append(s.q, mb)
	s.waiting.Add(1)
	if s.rng != nil {
		return
	}
	switch {
	case s.idle > 0:
		s.idle--
		s.wake.Signal()
	case s.workers < s.max:
		s.spawn()
	}
}

// take removes and returns the i-th broker of the run queue (0 is the
// oldest); the head fills the hole. The caller holds mu.
func (s *sched) take(i int) *mailbox {
	j := s.head + i
	mb := s.q[j]
	s.q[j] = s.q[s.head]
	s.q[s.head] = nil
	s.head++
	if s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
	s.waiting.Add(-1)
	return mb
}

// spawn starts a worker. The caller holds mu.
func (s *sched) spawn() {
	s.workers++
	s.done.Add(1)
	go s.work(s.newWorker())
}

func (s *sched) work(w *worker) {
	defer s.done.Done()
	var mb *mailbox
	for {
		if mb == nil {
			if mb = s.next(w); mb == nil {
				return
			}
		}
		handed, backlog := w.run(mb, maxBatch)
		mb = s.follow(w, mb, handed, backlog)
	}
}

// next blocks until the run queue has a broker for w and takes it. It
// returns nil, and retires w, once the bus is closed.
func (s *sched) next(w *worker) *mailbox {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if s.head < len(s.q) {
			w.streak = 0
			return s.take(0)
		}
		s.idle++
		s.wake.Wait()
	}
	return nil
}

// follow picks what w runs after a run of mb: mb again while it has a
// backlog, else the broker the run handed over, else nothing (w takes the
// run queue's head). What it does not keep goes to the back of the queue,
// as does what it would keep once w has run maxStreak runs without taking
// from a queue that has brokers waiting.
func (s *sched) follow(w *worker, mb, handed *mailbox, backlog bool) *mailbox {
	keep := handed
	if backlog {
		keep = mb
	} else {
		handed = nil
	}
	if keep != nil && w.streak >= maxStreak && s.waiting.Load() > 0 {
		s.enqueue(keep)
		keep = nil
	}
	if handed != nil {
		s.enqueue(handed)
	}
	if keep != nil {
		w.streak++
	}
	return keep
}

// close retires every worker once its current run returns.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.idle = 0
	s.wake.Broadcast()
	s.mu.Unlock()
	s.done.Wait()
}

// stepAll runs the stepped bus until its run queue is empty.
func (s *sched) stepAll() {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	for s.step() {
	}
}

// step runs one broker drawn from the run queue for a drawn run length,
// then queues it again if it has a backlog, and the broker its run handed
// over. It reports false when the queue was empty.
func (s *sched) step() bool {
	s.mu.Lock()
	n := len(s.q) - s.head
	if n == 0 {
		s.mu.Unlock()
		return false
	}
	mb := s.take(s.rng.Intn(n))
	limit := 1 + s.rng.Intn(maxBatch)
	s.mu.Unlock()
	handed, backlog := s.stepper.run(mb, limit)
	s.mu.Lock()
	if backlog {
		s.pushLocked(mb)
	}
	if handed != nil {
		s.pushLocked(handed)
	}
	s.mu.Unlock()
	return true
}

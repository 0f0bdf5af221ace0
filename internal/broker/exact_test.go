package broker

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// TestExactPassTakesNoLock: once the owner table is current, the owner's
// exact pass reads it and never b.mu — it returns, delivering and
// charging, while the test holds the lock.
func TestExactPassTakesNoLock(t *testing.T) {
	s := testSchema(t)
	b, err := New(Config{ID: 0, Schema: s, Mode: interval.Lossy, NumBrokers: 1, Attribution: NewFPAttributor(s, nil, nil, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := schema.ParseSubscription(s, `price > 1`)
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := schema.ParseEvent(s, `price=5`)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := schema.ParseEvent(s, `price=0.5`)
	if err != nil {
		t.Fatal(err)
	}
	b.ownerSnapshot() // warm: no mutation follows
	dead := subid.ID{Broker: 0, Local: 7}.Key()

	b.mu.Lock()
	done := make(chan [2]int)
	go func() {
		var hits Hits
		done <- [2]int{
			b.DeliverExactCandidates(hit, []uint64{id.Key(), dead}, &hits),
			b.DeliverExactCandidates(miss, []uint64{id.Key(), dead}, &hits), // charges a false positive
		}
	}()
	select {
	case n := <-done:
		b.mu.Unlock()
		if n != [2]int{1, 0} {
			t.Fatalf("delivered %v, want 1 for the hit and 0 for the miss", n)
		}
	case <-time.After(10 * time.Second):
		b.mu.Unlock()
		<-done
		t.Fatal("DeliverExactCandidates waited for b.mu")
	}
}

// TestExactPassSeesEveryMutation: Subscribe, Unsubscribe and Restore each
// retire a warm owner table, so a pass that begins after one returned
// sees its change.
func TestExactPassSeesEveryMutation(t *testing.T) {
	s := testSchema(t)
	b, err := New(Config{ID: 0, Schema: s, Mode: interval.Lossy, NumBrokers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := schema.ParseSubscription(s, `price > 1`)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, `price=5`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := b.Subscribe(sub, noDeliver)
	if err != nil {
		t.Fatal(err)
	}
	second := subid.ID{Broker: 0, Local: first.Local + 1}
	var hits Hits
	pass := func(after string, want int) {
		t.Helper()
		if n := b.DeliverExactCandidates(ev, []uint64{first.Key(), second.Key()}, &hits); n != want {
			t.Fatalf("after %s: delivered %d, want %d", after, n, want)
		}
	}
	pass("the first Subscribe", 1) // warms the table
	if second, err = b.Subscribe(sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	pass("a second Subscribe", 2)
	if err := b.Unsubscribe(second); err != nil {
		t.Fatal(err)
	}
	pass("its Unsubscribe", 1)
	if err := b.Restore(second.Local, sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	pass("its Restore", 2)
}

// registration is one subscription the race test registered under a
// local id: Subscribe and Restore each make a new one, so a local id
// Restore reuses gets a registration of its own.
type registration struct {
	sub     *schema.Subscription
	local   atomic.Int64 // its local id once Subscribe returned it; -1 before
	retired atomic.Int64 // the clock just after its Unsubscribe returned; 0 while live
}

// TestExactPassRacesMutators races the lock-free exact pass
// (DeliverExactCandidates, naming every id the broker ever issued) against
// Subscribe, Unsubscribe, Restore and TakePeriodSummary(true). Every
// delivery must exact-match the event, and no registration whose
// Unsubscribe returned before the call began may be delivered. Under
// -race it is the owner table's memory-model test.
func TestExactPassRacesMutators(t *testing.T) {
	s := testSchema(t)
	b, err := New(Config{ID: 0, Schema: s, Mode: interval.Lossy, NumBrokers: 1, Attribution: NewFPAttributor(s, nil, nil, 1)})
	if err != nil {
		t.Fatal(err)
	}
	const subscribes = 300
	subs := make([]*schema.Subscription, 10)
	for i := range subs {
		if subs[i], err = schema.ParseSubscription(s, fmt.Sprintf(`price > %d`, 10*i)); err != nil {
			t.Fatal(err)
		}
	}
	events := make([]*schema.Event, 10)
	for i := range events {
		if events[i], err = schema.ParseEvent(s, fmt.Sprintf(`price=%d`, 10*i+5)); err != nil {
			t.Fatal(err)
		}
	}

	var clock atomic.Int64     // ticks after every Unsubscribe and before every exact pass
	var callStart atomic.Int64 // the clock as the reader's current pass began
	var delivered, stale atomic.Int64
	register := func(sub *schema.Subscription) (*registration, DeliveryFunc) {
		r := &registration{sub: sub}
		r.local.Store(-1)
		return r, func(id subid.ID, ev *schema.Event) {
			delivered.Add(1)
			if l := r.local.Load(); l >= 0 && int64(id.Local) != l || !r.sub.Matches(ev) {
				t.Errorf("delivered %v (registered as local %d) an event it does not match: %v", id, l, ev.Fields())
			}
			if at := r.retired.Load(); at != 0 && at < callStart.Load() {
				stale.Add(1)
			}
		}
	}

	var wg sync.WaitGroup
	var restored atomic.Int64
	stop, subscribed := make(chan struct{}), make(chan struct{})
	unsubscribed := make(chan *registration, subscribes)
	wg.Add(3)
	go func() { // Subscribe, then Unsubscribe every other one
		defer wg.Done()
		defer close(subscribed)
		defer close(unsubscribed)
		for i := 0; i < subscribes; i++ {
			r, deliver := register(subs[i%len(subs)])
			id, err := b.Subscribe(r.sub, deliver)
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			r.local.Store(int64(id.Local))
			if i%2 == 0 {
				if err := b.Unsubscribe(id); err != nil {
					t.Errorf("unsubscribe: %v", err)
					return
				}
				r.retired.Store(clock.Add(1))
				unsubscribed <- r
			}
		}
	}()
	go func() { // Restore what Unsubscribe freed, when no full sync fenced it
		defer wg.Done()
		for old := range unsubscribed {
			r, deliver := register(old.sub)
			local := old.local.Load()
			r.local.Store(local)
			if b.Restore(subid.LocalID(local), r.sub, deliver) == nil {
				restored.Add(1)
			}
		}
	}()
	go func() { // full syncs, lifting the fences they cover
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.TakePeriodSummary(true)
			b.FinishFullSync()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	keys := make([]uint64, subscribes)
	for i := range keys {
		keys[i] = subid.ID{Broker: 0, Local: subid.LocalID(i)}.Key()
	}
	var hits Hits
	passes := 0
	for done := false; !done; passes++ {
		select {
		case <-subscribed:
			done = true // one last pass
		default:
		}
		callStart.Store(clock.Add(1))
		b.DeliverExactCandidates(events[passes%len(events)], keys, &hits)
	}
	close(stop)
	wg.Wait()
	if n := stale.Load(); n > 0 {
		t.Fatalf("%d deliveries to subscriptions unsubscribed before the pass began", n)
	}
	t.Logf("%d passes, %d deliveries, %d restores", passes, delivered.Load(), restored.Load())
	if delivered.Load() == 0 || restored.Load() == 0 {
		t.Fatal("the race delivered nothing or restored nothing; it tests nothing")
	}
}

// allocatedBy returns the bytes f allocates, from the heap's running total.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOwnerTableFollowsLiveCount: the owner table is sized by the live
// subscriptions, not by the highest local id. A subscription restored at
// local 1<<31 (as LoadSnapshot may restore it) is found by the exact pass
// and the merged match, and neither allocates anywhere near an entry per
// id below it.
func TestOwnerTableFollowsLiveCount(t *testing.T) {
	s := testSchema(t)
	b, err := New(Config{ID: 0, Schema: s, Mode: interval.Lossy, NumBrokers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := schema.ParseSubscription(s, `price > 1`)
	if err != nil {
		t.Fatal(err)
	}
	const local = 1 << 31
	if err := b.Restore(local, sub, noDeliver); err != nil {
		t.Fatal(err)
	}
	next, err := b.Subscribe(sub, noDeliver) // issued past the restored id
	if err != nil {
		t.Fatal(err)
	}
	ev, err := schema.ParseEvent(s, `price=5`)
	if err != nil {
		t.Fatal(err)
	}
	high := subid.ID{Broker: 0, Local: local}.Key()
	var delivered, matched int
	alloc := allocatedBy(func() {
		var hits Hits
		delivered = b.DeliverExactCandidates(ev, []uint64{high - 1, high, next.Key()}, &hits)
		matched = len(b.MatchMerged(ev))
	})
	if delivered != 2 || matched != 2 {
		t.Fatalf("delivered %d and matched %d, want both subscriptions", delivered, matched)
	}
	if alloc > 1<<20 {
		t.Fatalf("the first exact pass and match allocated %d bytes for 2 subscriptions", alloc)
	}
}

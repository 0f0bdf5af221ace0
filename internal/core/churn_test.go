package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// churnSubText names the deterministic subscription j of broker i shared
// by the differential test's networks.
func churnSubText(broker, j int) string {
	return fmt.Sprintf(`price = %d`, 100000+broker*100+j)
}

// TestChurnDifferentialConvergence is the differential oracle for
// retraction semantics. A network that disseminated its subscriptions and
// then churned half of them away must, through retraction deltas alone,
// purge every remote copy of a withdrawn subscription — and its next
// full-sync period must leave every broker byte-identical to the same
// period of a freshly built network that only ever saw the survivors.
//
// Subscriptions all exist before period 1, so one period spreads them as
// far as Algorithm 2's degree-directed flow ever carries them; the
// retractions, entering the deltas together, travel the same routes in
// one more period. The schedule is therefore: spread, churn, spread
// retractions, full sync.
func TestChurnDifferentialConvergence(t *testing.T) {
	g := topology.Figure7Tree()
	s := stockSchema(t)
	const perBroker = 4

	subscribeAll := func(net *Network, dropDoomedEarly bool) []subid.ID {
		t.Helper()
		var doomed []subid.ID
		for i := 0; i < g.Len(); i++ {
			for j := 0; j < perBroker; j++ {
				sub, err := schema.ParseSubscription(s, churnSubText(i, j))
				if err != nil {
					t.Fatal(err)
				}
				id, err := net.Subscribe(topology.NodeID(i), sub, func(subid.ID, *schema.Event) {})
				if err != nil {
					t.Fatal(err)
				}
				if j%2 == 1 {
					if dropDoomedEarly {
						// Withdrawn before any propagation: removed purely
						// locally, so the survivors keep identical local ids.
						if err := net.Unsubscribe(id); err != nil {
							t.Fatal(err)
						}
					} else {
						doomed = append(doomed, id)
					}
				}
			}
		}
		return doomed
	}

	churned, err := New(Config{Topology: g, Schema: s, Mode: interval.Lossy, FullSyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(churned.Close)
	doomed := subscribeAll(churned, false)
	if _, err := churned.Propagate(); err != nil { // period 1: rows spread
		t.Fatal(err)
	}
	// The test is only meaningful if churned rows actually reached remote
	// brokers.
	remoteDoomed := 0
	for i := 0; i < g.Len(); i++ {
		snap, _ := churned.Broker(topology.NodeID(i)).SnapshotMerged()
		for _, id := range doomed {
			if id.Broker != subid.BrokerID(i) && snap.Contains(id) {
				remoteDoomed++
			}
		}
	}
	if remoteDoomed == 0 {
		t.Fatal("no doomed subscription ever left its owner — dissemination broken")
	}
	for _, id := range doomed {
		if err := churned.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := churned.Propagate(); err != nil { // period 2: retraction deltas
		t.Fatal(err)
	}
	// Retraction deltas alone — no full sync yet — must have purged every
	// remote copy of the withdrawn subscriptions.
	for i := 0; i < g.Len(); i++ {
		snap, _ := churned.Broker(topology.NodeID(i)).SnapshotMerged()
		for _, id := range doomed {
			if snap.Contains(id) {
				t.Fatalf("broker %d still holds withdrawn subscription %v after retraction deltas", i, id)
			}
		}
	}
	if _, err := churned.Propagate(); err != nil { // period 3: full sync
		t.Fatal(err)
	}

	// Survivor network: identical live set, never saw the churn. Its first
	// period is definitionally what the churned network's resync must
	// reproduce.
	fresh, err := New(Config{Topology: g, Schema: s, Mode: interval.Lossy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	subscribeAll(fresh, true)
	if _, err := fresh.Propagate(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < g.Len(); i++ {
		cSum, cMask := churned.Broker(topology.NodeID(i)).SnapshotMerged()
		fSum, fMask := fresh.Broker(topology.NodeID(i)).SnapshotMerged()
		cBits, fBits := cMask.Bits(), fMask.Bits()
		if len(cBits) != len(fBits) {
			t.Fatalf("broker %d: Merged_Brokers %v, fresh network has %v", i, cBits, fBits)
		}
		for k := range cBits {
			if cBits[k] != fBits[k] {
				t.Fatalf("broker %d: Merged_Brokers %v, fresh network has %v", i, cBits, fBits)
			}
		}
		cEnc, fEnc := cSum.Encode(nil), fSum.Encode(nil)
		if !bytes.Equal(cEnc, fEnc) {
			t.Errorf("broker %d: merged summary after churn+resync differs from survivor-only build (%d vs %d bytes)",
				i, len(cEnc), len(fEnc))
		}
	}
	if v := churned.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations after convergence: %v", v)
	}
}

// TestFullSyncRepairsLostRetraction: a retraction delta lost to a fault
// leaves a stale remote row that pure deltas can never remove; the next
// full-sync resync — the receiver replaces every row owned by the
// sender's claimed brokers — must purge it within one FullSyncEvery
// cycle. A control network without full syncs keeps the stale row
// forever, proving the repair comes from the resync semantics.
func TestFullSyncRepairsLostRetraction(t *testing.T) {
	// On the 1–2–1 line, broker 1 is exactly the receiver set of broker
	// 0's summary (see propagation's TestRunCarriesRetractions), so the
	// stale copy and its repair path are fully deterministic.
	g := topology.New("line3", 3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	s := stockSchema(t)

	run := func(fullSyncEvery int) *Network {
		t.Helper()
		net, err := New(Config{Topology: g, Schema: s, Mode: interval.Lossy, FullSyncEvery: fullSyncEvery})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		sub, err := schema.ParseSubscription(s, churnSubText(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		id, err := net.Subscribe(0, sub, func(subid.ID, *schema.Event) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Propagate(); err != nil { // period 1: row reaches broker 1
			t.Fatal(err)
		}
		if snap, _ := net.Broker(1).SnapshotMerged(); !snap.Contains(id) {
			t.Fatal("subscription never reached broker 1")
		}
		net.InjectFaults(func(m netsim.Message) bool { return m.Kind == netsim.KindSummary })
		if err := net.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Propagate(); err != nil { // period 2: retraction delta lost
			t.Fatal(err)
		}
		net.InjectFaults(nil)
		if snap, _ := net.Broker(1).SnapshotMerged(); !snap.Contains(id) {
			t.Fatal("stale row vanished without the retraction arriving — loss not injected?")
		}
		if _, err := net.Propagate(); err != nil { // period 3: full sync (or plain delta for the control)
			t.Fatal(err)
		}
		snap, _ := net.Broker(1).SnapshotMerged()
		if fullSyncEvery > 0 {
			if snap.Contains(id) {
				t.Fatal("stale row survived the full-sync resync")
			}
			if v := net.CheckInvariants(); len(v) != 0 {
				t.Fatalf("invariant violations after repair: %v", v)
			}
		} else if !snap.Contains(id) {
			t.Fatal("control: stale row disappeared under pure deltas — repair not attributable to full sync")
		}
		return net
	}

	run(3) // period 3 is the resync
	run(0) // control: pure deltas never repair
}

// TestChurnSoakWatchdog drives sustained random churn through the live
// engine — concurrent publishes, retraction deltas every period, full
// syncs every 5th — and asserts the invariant watchdog never fires.
// Run with -race: the soak is the e2e exercise of the churn paths'
// locking.
func TestChurnSoakWatchdog(t *testing.T) {
	g := topology.Figure7Tree()
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{Topology: g, Schema: gen.Schema(), Mode: interval.Lossy, FullSyncEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	ch, err := workload.NewChurn(gen, workload.ChurnConfig{Rate: 30, MeanLifetime: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent publisher: events flow while churn and propagation run,
	// with watchdog passes racing the engine as in production. Its window
	// is bounded — a Flush every 64 publishes — because an unthrottled
	// publisher can keep the bus from ever going quiet under Propagate's
	// Quiesce, and the test's duration then hangs on scheduler luck.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		evGen, err := workload.NewGenerator(workload.DefaultConfig())
		if err != nil {
			panic(err)
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := net.Publish(topology.NodeID(i%g.Len()), evGen.Event(0.5)); err != nil {
				panic(err)
			}
			net.CheckInvariants()
			if i%64 == 63 {
				net.Flush()
			}
		}
	}()

	ids := make(map[int]subid.ID)
	const periods = 15
	for p := 1; p <= periods; p++ {
		cp := ch.Period()
		for _, h := range cp.Died {
			if err := net.Unsubscribe(ids[h]); err != nil {
				t.Fatal(err)
			}
			delete(ids, h)
		}
		for _, b := range cp.Born {
			id, err := net.Subscribe(topology.NodeID(b.Handle%g.Len()), b.Sub, func(subid.ID, *schema.Event) {})
			if err != nil {
				t.Fatal(err)
			}
			ids[b.Handle] = id
		}
		if _, err := net.Propagate(); err != nil {
			t.Fatal(err)
		}
		if v := net.CheckInvariants(); len(v) != 0 {
			t.Fatalf("period %d: invariant violations: %v", p, v)
		}
	}
	close(stop)
	wg.Wait()
	net.Flush()

	// Period 15 was a full sync with no churn since its start: the
	// convergence invariant is armed and must hold exactly.
	if v := net.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations at quiescence: %v", v)
	}

	// Negative control: a stale-row divergence (simulated by deleting one
	// remote row from a merged summary) must trip the convergence check.
	// Pick a broker/id pair where the remote merged copy actually holds
	// the row — post-sync coverage is partial, like a fresh period 1.
	corrupted := false
seek:
	for v := 0; v < g.Len(); v++ {
		victim := topology.NodeID(v)
		snap, _ := net.Broker(victim).SnapshotMerged()
		for _, id := range ids {
			if id.Broker != subid.BrokerID(v) && snap.Contains(id) {
				net.Broker(victim).CorruptMerged(id)
				corrupted = true
				break seek
			}
		}
	}
	if !corrupted {
		t.Fatal("no broker holds any remote subscription — soak never disseminated")
	}
	violations := net.CheckInvariants()
	found := false
	for _, v := range violations {
		if v.Check == CheckConvergence {
			found = true
		}
	}
	if !found {
		t.Fatalf("convergence check missed a corrupted merged summary (got %v)", violations)
	}
}

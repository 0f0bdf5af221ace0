package subgroup

import (
	"slices"
	"sync"
	"testing"

	"github.com/subsum/subsum/internal/flight"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// analyticsFixture hand-builds a two-group network whose digest behavior
// is fully deterministic. Group 1's digest checks attribute
// satisfiability independently, so an event combining broker 2's
// x-range with broker 3's y-range passes the digest while the merged
// summary — which keeps per-subscription precision — names no owner:
// a guaranteed pass-but-no-delivery (measured digest false positive).
func analyticsFixture(t *testing.T) (*topology.Graph, *schema.Schema, []*summary.Summary, *Plan) {
	t.Helper()
	s := schema.MustNew(
		schema.Attribute{Name: "x", Type: schema.TypeFloat},
		schema.Attribute{Name: "y", Type: schema.TypeFloat},
	)
	subs := []string{
		"x > 100",                   // broker 0 (group 0)
		"x > 100",                   // broker 1 (group 0)
		"x < 10 && y > 50",          // broker 2 (group 1)
		"x > 20 && x < 30 && y < 5", // broker 3 (group 1)
	}
	own := make([]*summary.Summary, len(subs))
	for i, text := range subs {
		sub, err := schema.ParseSubscription(s, text)
		if err != nil {
			t.Fatalf("ParseSubscription(%q): %v", text, err)
		}
		sm := summary.New(s, interval.Lossy)
		if err := sm.Insert(subid.ID{Broker: subid.BrokerID(i)}, sub); err != nil {
			t.Fatal(err)
		}
		own[i] = sm
	}
	plan := &Plan{
		Groups:  [][]topology.NodeID{{0, 1}, {2, 3}},
		Leaders: []topology.NodeID{0, 2},
		GroupOf: []int{0, 0, 1, 1},
	}
	return topology.Ring(4), s, own, plan
}

// TestRouterAnalyticsDeterministic drives the hand-built fixture through
// the three digest outcomes — prune, pass-with-delivery, and
// pass-but-no-delivery — and checks the exact counter values.
func TestRouterAnalyticsDeterministic(t *testing.T) {
	g, s, own, plan := analyticsFixture(t)
	res, err := Propagate(g, own, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, res)
	if err != nil {
		t.Fatal(err)
	}
	ev := func(text string) *schema.Event {
		e, err := schema.ParseEvent(s, text)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", text, err)
		}
		return e
	}
	// All from origin 0 (home group 0):
	// x=200: matches group 0; group 1's digest prunes (no hull holds 200).
	// x=25,y=3: group 1 digest passes and broker 3 matches — delivery.
	// x=25,y=60: group 1 digest passes (x via broker 3's hull, y via
	// broker 2's) but neither subscription matches — pass-no-deliver.
	r.Route(0, ev("x=200 y=0"))
	tr := r.Route(0, ev("x=25 y=3"))
	if len(tr.Delivered) != 1 || tr.Delivered[0] != 3 {
		t.Fatalf("pass-with-delivery event delivered to %v, want [3]", tr.Delivered)
	}
	tr = r.Route(0, ev("x=25 y=60"))
	if len(tr.Delivered) != 0 {
		t.Fatalf("pass-no-deliver event delivered to %v, want none", tr.Delivered)
	}

	rep := r.Analytics()
	if rep.Events != 3 {
		t.Fatalf("events = %d, want 3", rep.Events)
	}
	g0, g1 := rep.Groups[0], rep.Groups[1]
	if g0.HomeEvents != 3 || g0.LeaderEvents != 3 || g0.Pruned != 0 || g0.Passes != 0 {
		t.Fatalf("group 0 counters %+v", g0)
	}
	if g1.Pruned != 1 || g1.Passes != 2 || g1.PassNoDeliver != 1 || g1.LeaderEvents != 2 {
		t.Fatalf("group 1 counters %+v", g1)
	}
	if g1.DigestFPRate != 0.5 {
		t.Fatalf("group 1 digest FP rate %v, want 0.5", g1.DigestFPRate)
	}
	if want := 1.0 / 3.0; g1.PruneRate != want {
		t.Fatalf("group 1 prune rate %v, want %v", g1.PruneRate, want)
	}
	// Leader loads 3 and 2 over 2 groups: skew = 3 / 2.5.
	if want := 3.0 / 2.5; rep.LeaderSkew != want {
		t.Fatalf("leader skew %v, want %v", rep.LeaderSkew, want)
	}
	if rep.DesignFPRate < 0.011 || rep.DesignFPRate > 0.013 {
		t.Fatalf("design FP rate %v outside the 10-bit/4-probe point", rep.DesignFPRate)
	}
}

// TestRouterAnalyticsInvariants routes a realistic workload batch and
// checks the conservation laws every snapshot must satisfy: each event
// is consulted exactly once per foreign group, and a leader's load is
// its home events plus the passes that reached it. The batch is routed
// from several goroutines at once, as Route allows: every trace must
// deliver what a serial router over the same result delivers.
func TestRouterAnalyticsInvariants(t *testing.T) {
	regions := []int{0, 0, 0, 0, 1, 1, 1, 1}
	own, gens := matchableRegionSummaries(t, regions, 20, 53)
	g := topology.Ring(len(regions))
	res, r := subgroupOver(t, g, own)
	serial, err := NewRouter(g, res)
	if err != nil {
		t.Fatal(err)
	}

	const events, routers = 120, 4
	batch := make([]*schema.Event, events)
	want := make([][]topology.NodeID, events)
	for k := range batch {
		batch[k] = gens[k%2].Event(0.5)
		want[k] = serial.Route(topology.NodeID(k%g.Len()), batch[k]).Delivered
	}
	var wg sync.WaitGroup
	for w := 0; w < routers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < events; k += routers {
				got := r.Route(topology.NodeID(k%g.Len()), batch[k]).Delivered
				if !slices.Equal(got, want[k]) {
					t.Errorf("event %d routed concurrently delivered to %v, serially to %v", k, got, want[k])
				}
			}
		}(w)
	}
	wg.Wait()
	rep := r.Analytics()
	if rep.Events != events {
		t.Fatalf("events = %d, want %d", rep.Events, events)
	}
	var homeSum int64
	for _, ga := range rep.Groups {
		homeSum += ga.HomeEvents
		if got := ga.HomeEvents + ga.Pruned + ga.Passes; got != events {
			t.Fatalf("group %d: home %d + pruned %d + passes %d = %d, want %d",
				ga.Group, ga.HomeEvents, ga.Pruned, ga.Passes, got, events)
		}
		if got := ga.HomeEvents + ga.Passes; got != ga.LeaderEvents {
			t.Fatalf("group %d: leader events %d != home %d + passes %d",
				ga.Group, ga.LeaderEvents, ga.HomeEvents, ga.Passes)
		}
		if ga.PassNoDeliver > ga.Passes {
			t.Fatalf("group %d: pass-no-deliver %d exceeds passes %d",
				ga.Group, ga.PassNoDeliver, ga.Passes)
		}
	}
	if homeSum != events {
		t.Fatalf("home events sum to %d, want %d", homeSum, events)
	}
	if rep.LeaderSkew < 1 {
		t.Fatalf("leader skew %v below 1 (max must be >= mean)", rep.LeaderSkew)
	}
}

// TestRouterInstrumentAndFlight exercises the snapshot exports: gauges
// land in the registry under per-group labels, and RecordFlight journals
// one EvSubgroupDigest record per group carrying the leader and counts.
func TestRouterInstrumentAndFlight(t *testing.T) {
	g, s, own, plan := analyticsFixture(t)
	res, err := Propagate(g, own, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g, res)
	if err != nil {
		t.Fatal(err)
	}
	e, err := schema.ParseEvent(s, "x=25 y=60")
	if err != nil {
		t.Fatal(err)
	}
	r.Route(0, e)

	reg := metrics.NewRegistry()
	r.Instrument(reg)
	m := reg.Map()
	if m["subgroup_digest_passes{1}"] != 1 {
		t.Fatalf("subgroup_digest_passes{1} = %v, want 1 (have %v)", m["subgroup_digest_passes{1}"], m)
	}
	if m["subgroup_digest_pass_no_deliver{1}"] != 1 {
		t.Fatalf("subgroup_digest_pass_no_deliver{1} = %v, want 1", m["subgroup_digest_pass_no_deliver{1}"])
	}
	if m["subgroup_leader_events{0}"] != 1 {
		t.Fatalf("subgroup_leader_events{0} = %v, want 1", m["subgroup_leader_events{0}"])
	}
	if m["subgroup_digest_fp_rate_ppm"] != 1e6 {
		t.Fatalf("subgroup_digest_fp_rate_ppm = %v, want 1e6", m["subgroup_digest_fp_rate_ppm"])
	}

	rec := flight.NewRecorder(1 << 16)
	r.RecordFlight(rec)
	var digests int
	for _, record := range rec.Records() {
		if record.Type == flight.EvSubgroupDigest {
			digests++
			if int(record.A) == 1 {
				if record.Broker != 2 || record.C != 1 {
					t.Fatalf("group 1 record %+v: want leader 2, pass-no-deliver 1", record)
				}
			}
		}
	}
	if digests != plan.NumGroups() {
		t.Fatalf("journalled %d digest records, want %d", digests, plan.NumGroups())
	}
	// Nil attachments must be no-ops, not panics.
	r.Instrument(nil)
	r.RecordFlight(nil)
}

// TestDigestEpochStamp covers the epoch plumbing: StampEpoch marks every
// digest, and the epoch survives the wire round trip.
func TestDigestEpochStamp(t *testing.T) {
	g, _, own, plan := analyticsFixture(t)
	res, err := Propagate(g, own, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	res.StampEpoch(42)
	for gi, d := range res.Digests {
		if d.Epoch != 42 {
			t.Fatalf("group %d digest epoch %d, want 42", gi, d.Epoch)
		}
		dec, err := DecodeDigest(d.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Epoch != 42 {
			t.Fatalf("group %d decoded epoch %d, want 42", gi, dec.Epoch)
		}
	}
}

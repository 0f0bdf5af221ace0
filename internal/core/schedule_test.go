package core

import (
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// TestLiveEngineSendsTheSchedule is the cross-check that the two Algorithm
// 2 executors cannot drift apart: the summary messages the live engine
// puts on the bus — in a first period, a second one and a full-sync period
// — are exactly propagation.Schedule's sends in its order, and the offline
// propagation.Run logs the same (iteration, from, to) triples.
func TestLiveEngineSendsTheSchedule(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.CW24(),
		topology.Figure7Tree(),
		topology.TransitStub(256, 256),
	} {
		t.Run(g.Name(), func(t *testing.T) {
			var want []propagation.Hop
			var wantIters []int
			for _, r := range propagation.Schedule(g) {
				for _, h := range r.Sends {
					want = append(want, h)
					wantIters = append(wantIters, r.Iteration)
				}
			}

			s := stockSchema(t)
			net, err := New(Config{Topology: g, Schema: s, Mode: interval.Lossy, FullSyncEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(net.Close)
			// A predicate that drops nothing sees every message sent; summary
			// messages are all sent by the goroutine that calls Propagate.
			var got []propagation.Hop
			fullSyncs := 0
			net.InjectFaults(func(m netsim.Message) bool {
				if m.Kind == netsim.KindSummary {
					got = append(got, propagation.Hop{From: m.From, To: m.To})
					if m.Body.([]byte)[0]&sumFlagFullSync != 0 {
						fullSyncs++
					}
				}
				return false
			})
			own := make([]*summary.Summary, g.Len())
			for i := range own {
				sub, err := schema.ParseSubscription(s, `price > 10`)
				if err != nil {
					t.Fatal(err)
				}
				id, err := net.Subscribe(topology.NodeID(i), sub, func(subid.ID, *schema.Event) {})
				if err != nil {
					t.Fatal(err)
				}
				own[i] = summary.New(s, interval.Lossy)
				if err := own[i].Insert(id, sub); err != nil {
					t.Fatal(err)
				}
			}
			for period := 1; period <= 3; period++ {
				got, fullSyncs = got[:0], 0
				hops, err := net.Propagate()
				if err != nil {
					t.Fatal(err)
				}
				if hops != len(want) || !slices.Equal(got, want) {
					t.Fatalf("period %d: %d hops, sent %v\nschedule %v", period, hops, got, want)
				}
				wantFull := 0
				if period == 3 { // FullSyncEvery
					wantFull = len(want)
				}
				if fullSyncs != wantFull {
					t.Fatalf("period %d: %d full-sync payloads, want %d", period, fullSyncs, wantFull)
				}
			}

			res, err := propagation.Run(g, own, propagation.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Sends) != len(want) {
				t.Fatalf("Run logged %d sends, schedule has %d", len(res.Sends), len(want))
			}
			for i, send := range res.Sends {
				if send.Iteration != wantIters[i] || send.From != want[i].From || send.To != want[i].To {
					t.Fatalf("Run send %d = iteration %d %d>%d, schedule has iteration %d %d>%d",
						i, send.Iteration, send.From, send.To, wantIters[i], want[i].From, want[i].To)
				}
			}
		})
	}
}

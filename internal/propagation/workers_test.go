package propagation

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/par"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// TestRunWorkersDifferential: the parallel period must be bit-identical
// at every pool width — same send log, same Merged_Brokers sets, and
// byte-identical merged summaries — because target selection is serial
// and per-target merges apply deliveries in selection order.
func TestRunWorkersDifferential(t *testing.T) {
	ts, _ := topology.TransitStubRegions(64, 11)
	for _, g := range []*topology.Graph{
		topology.Figure7Tree(),
		topology.CW24(),
		ts,
	} {
		own := workloadSummaries(t, g, 8)
		want, err := RunWorkers(g, own, DefaultCostModel(), 1)
		if err != nil {
			t.Fatalf("%s: serial RunWorkers: %v", g.Name(), err)
		}
		for _, workers := range []int{2, 4, 8, 0} {
			got, err := RunWorkers(g, own, DefaultCostModel(), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", g.Name(), workers, err)
			}
			if got.Hops != want.Hops || got.WireBytes != want.WireBytes || got.ModelBytes != want.ModelBytes {
				t.Fatalf("%s workers=%d: totals (%d hops, %d wire, %d model) != serial (%d, %d, %d)",
					g.Name(), workers, got.Hops, got.WireBytes, got.ModelBytes,
					want.Hops, want.WireBytes, want.ModelBytes)
			}
			if !reflect.DeepEqual(got.Sends, want.Sends) {
				t.Fatalf("%s workers=%d: send log differs from serial", g.Name(), workers)
			}
			for i := range got.Merged {
				if !reflect.DeepEqual(got.MergedBrokers[i].Bits(), want.MergedBrokers[i].Bits()) {
					t.Fatalf("%s workers=%d: broker %d Merged_Brokers differ", g.Name(), workers, i)
				}
				if !bytes.Equal(got.Merged[i].Encode(nil), want.Merged[i].Encode(nil)) {
					t.Fatalf("%s workers=%d: broker %d merged summary differs", g.Name(), workers, i)
				}
			}
		}
	}
}

// TestRunWorkersMatchesReference pins the parallel path to the
// clone-per-send reference on a generated large graph, where iteration
// counts and delivery groupings differ most from the hand-built fixtures.
func TestRunWorkersMatchesReference(t *testing.T) {
	g, _ := topology.TransitStubRegions(96, 5)
	own := workloadSummaries(t, g, 6)
	got, err := RunWorkers(g, own, DefaultCostModel(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runReference(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if got.Hops != want.Hops || got.ModelBytes != want.ModelBytes {
		t.Fatalf("hops/model bytes (%d, %d) != reference (%d, %d)",
			got.Hops, got.ModelBytes, want.Hops, want.ModelBytes)
	}
	if len(got.Sends) != len(want.Sends) {
		t.Fatalf("%d sends != reference %d", len(got.Sends), len(want.Sends))
	}
	for i := range got.Merged {
		if !bytes.Equal(got.Merged[i].Encode(nil), want.Merged[i].Encode(nil)) {
			t.Fatalf("broker %d merged summary differs from reference", i)
		}
	}
}

// TestRunWorkersChurnSoak interleaves parallel periods with parallel
// per-broker churn — the pattern the live engine runs every period.
// Each round rebuilds a slice of the brokers' own summaries under
// par.Sweep (slot-owned writes), then runs a parallel period and checks
// it against the serial run of the same inputs. Run under -race this is
// the soak required by the issue.
func TestRunWorkersChurnSoak(t *testing.T) {
	g, _ := topology.TransitStubRegions(48, 3)
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	// Pre-generate deterministic subscription pools per broker; churn
	// swaps which half of the pool each broker currently owns.
	const poolSize = 8
	pools := make([][]*schema.Subscription, n)
	for i := range pools {
		pools[i] = make([]*schema.Subscription, poolSize)
		for j := range pools[i] {
			pools[i][j] = gen.Subscription()
		}
	}
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		own := make([]*summary.Summary, n)
		if err := par.SweepErr(n, 0, func(i int) error {
			sm := summary.New(gen.Schema(), interval.Lossy)
			for j := 0; j < poolSize/2; j++ {
				idx := (j + round*3 + i) % poolSize
				id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(idx)}
				if err := sm.Insert(id, pools[i][idx]); err != nil {
					return err
				}
			}
			own[i] = sm
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got, err := RunWorkers(g, own, DefaultCostModel(), 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := RunWorkers(g, own, DefaultCostModel(), 1)
		if err != nil {
			t.Fatalf("round %d serial: %v", round, err)
		}
		for i := range got.Merged {
			if !bytes.Equal(got.Merged[i].Encode(nil), want.Merged[i].Encode(nil)) {
				t.Fatalf("round %d: broker %d parallel merged state diverged from serial", round, i)
			}
		}
	}
}

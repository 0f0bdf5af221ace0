package propagation

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// workloadSummaries builds realistic per-broker summaries (sigma
// subscriptions each) from the paper's stock workload.
func workloadSummaries(t testing.TB, g *topology.Graph, sigma int) []*summary.Summary {
	t.Helper()
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	own := make([]*summary.Summary, g.Len())
	for i := range own {
		own[i] = summary.New(gen.Schema(), interval.Lossy)
		for j := 0; j < sigma; j++ {
			id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(j)}
			if err := own[i].Insert(id, gen.Subscription()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return own
}

// TestRunMatchesCloneReference is the differential test required by the
// clone-free rewrite: the pooled, MergeEncoded-based Run must produce
// byte-identical merged summaries, identical Merged_Brokers sets, and an
// identical send log (wire bytes included) versus the clone-per-send
// reference implementation.
func TestRunMatchesCloneReference(t *testing.T) {
	for _, tc := range []struct {
		g     *topology.Graph
		sigma int
	}{
		{topology.Figure7Tree(), 5},
		{topology.CW24(), 20},
		{topology.Random(20, 8, 7), 10},
		{topology.Star(8), 10},
		{topology.Ring(9), 5},
	} {
		own := workloadSummaries(t, tc.g, tc.sigma)
		got, err := Run(tc.g, own, DefaultCostModel())
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.g.Name(), err)
		}
		want, err := runReference(tc.g, own, DefaultCostModel())
		if err != nil {
			t.Fatalf("%s: runReference: %v", tc.g.Name(), err)
		}
		if got.Hops != want.Hops {
			t.Fatalf("%s: hops %d != reference %d", tc.g.Name(), got.Hops, want.Hops)
		}
		if got.ModelBytes != want.ModelBytes {
			t.Fatalf("%s: model bytes %d != reference %d", tc.g.Name(), got.ModelBytes, want.ModelBytes)
		}
		if got.WireBytes != want.WireBytes {
			t.Fatalf("%s: wire bytes %d != reference %d", tc.g.Name(), got.WireBytes, want.WireBytes)
		}
		if len(got.Sends) != len(want.Sends) {
			t.Fatalf("%s: %d sends != reference %d", tc.g.Name(), len(got.Sends), len(want.Sends))
		}
		for i := range got.Sends {
			if a, b := got.Sends[i], want.Sends[i]; !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: send %d differs: %+v vs reference %+v", tc.g.Name(), i, a, b)
			}
		}
		for i := range got.MergedBrokers {
			if !reflect.DeepEqual(got.MergedBrokers[i].Bits(), want.MergedBrokers[i].Bits()) {
				t.Fatalf("%s: broker %d Merged_Brokers %v != reference %v",
					tc.g.Name(), i, got.MergedBrokers[i].Bits(), want.MergedBrokers[i].Bits())
			}
		}
		for i := range got.Merged {
			if !bytes.Equal(got.Merged[i].Encode(nil), want.Merged[i].Encode(nil)) {
				t.Fatalf("%s: broker %d merged summary differs from reference", tc.g.Name(), i)
			}
		}
	}
}

// TestWireBytesAccounting: every send's WireBytes is the length of the
// shared encoded payload — the sender's merged summary at send time — and
// the totals are exact sums.
func TestWireBytesAccounting(t *testing.T) {
	g := topology.CW24()
	own := workloadSummaries(t, g, 10)
	// Pre-capture each broker's standalone encoded size: a broker of
	// degree 1 sends in iteration 1, before it can have received anything,
	// so its payload must be exactly its own summary's wire form.
	ownSize := make([]int, g.Len())
	for i, sm := range own {
		ownSize[i] = len(sm.Encode(nil))
	}
	res, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	var wire, model int64
	firstIter := res.Sends[0].Iteration
	for _, s := range res.Sends {
		if s.WireBytes <= 0 {
			t.Fatalf("send %+v has no wire bytes", s)
		}
		wire += int64(s.WireBytes)
		model += int64(s.ModelBytes)
		if s.Iteration == firstIter && g.Degree(s.From) == firstIter {
			if s.WireBytes != ownSize[s.From] {
				t.Errorf("iteration-%d sender %d: wire bytes %d != own encoded size %d",
					firstIter, s.From, s.WireBytes, ownSize[s.From])
			}
		}
	}
	if wire != res.WireBytes {
		t.Fatalf("send wire sum %d != total %d", wire, res.WireBytes)
	}
	if model != res.ModelBytes {
		t.Fatalf("send model sum %d != total %d", model, res.ModelBytes)
	}
}

// TestCopyOnReceive: Run must not clone summaries for brokers that never
// receive (their Merged entry aliases the input), and must never mutate
// any input summary either way.
func TestCopyOnReceive(t *testing.T) {
	g := topology.CW24()
	own := workloadSummaries(t, g, 5)
	before := make([][]byte, len(own))
	for i, sm := range own {
		before[i] = sm.Encode(nil)
	}
	res, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	received := make([]bool, g.Len())
	for _, s := range res.Sends {
		received[s.To] = true
	}
	anyAliased := false
	for i := range own {
		if !received[i] {
			if res.Merged[i] != own[i] {
				t.Errorf("broker %d received nothing but Merged was cloned", i)
			}
			anyAliased = true
		} else if res.Merged[i] == own[i] {
			t.Errorf("broker %d received a summary but Merged aliases the input", i)
		}
		if !bytes.Equal(own[i].Encode(nil), before[i]) {
			t.Errorf("broker %d input summary mutated", i)
		}
	}
	if !anyAliased {
		t.Skip("topology has no receive-free brokers; aliasing unexercised")
	}
}

package propagation

import (
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
)

// TestRunCarriesRetractions models a churn period standalone: broker 0's
// delta carries only a retraction (its old subscription left). The
// retraction must ride the Algorithm 2 flow to every broker 0's summary
// reaches, survive intermediate merges for onward propagation, and — when
// the period result is folded into a long-lived merged summary that still
// holds the dead row — remove it.
func TestRunCarriesRetractions(t *testing.T) {
	g := topology.New("line3", 3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)

	own, s := buildSummaries(t, g)
	deadKey := subid.ID{Broker: 0, Local: 7}.Key()
	own[0].AddRetraction(deadKey)

	res, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// On the 1–2–1 line, the degree-1 ends send to the middle; the middle
	// (no higher- or equal-degree neighbor) sends nowhere. Broker 1 is
	// therefore exactly the receiver set of broker 0's delta.
	if got := res.Merged[1].NumRetractions(); got != 1 {
		t.Fatalf("middle broker retains %d retractions, want 1", got)
	}
	if res.Merged[2].NumRetractions() != 0 {
		t.Fatalf("broker 2 received a retraction that never flowed its way")
	}

	// A long-lived merged summary still holding the dead row applies the
	// period result and shrinks.
	stale := summary.New(s, interval.Lossy)
	sub, err := schema.NewSubscription(s, schema.Constraint{
		Attr: 0, Op: schema.OpGT, Value: schema.FloatValue(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.Insert(subid.ID{Broker: 0, Local: 7}, sub); err != nil {
		t.Fatal(err)
	}
	if err := stale.MergeEncoded(res.Merged[1].Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if stale.Contains(subid.ID{Broker: 0, Local: 7}) {
		t.Fatalf("stale row survived the retraction-carrying merge")
	}
	if !stale.Contains(subid.ID{Broker: 1, Local: 0}) {
		t.Fatalf("live rows were lost applying the period result")
	}
	stale.ClearRetractions() // the broker.MergeEncodedSummary discipline
	if stale.NumRetractions() != 0 {
		t.Fatalf("retractions not clearable on a long-lived merged summary")
	}
}

// TestRunReferenceMatchesRunUnderChurn extends the differential guarantee
// to retraction-carrying periods: the clone-free Run and the reference
// implementation must produce identical merged state.
func TestRunReferenceMatchesRunUnderChurn(t *testing.T) {
	g := topology.Figure7Tree()
	own, _ := buildSummaries(t, g)
	// Brokers 0 and 5 also retract one old id each.
	own[0].AddRetraction(subid.ID{Broker: 0, Local: 9}.Key())
	own[5].AddRetraction(subid.ID{Broker: 5, Local: 3}.Key())

	fast, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runReference(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Hops != ref.Hops || fast.ModelBytes != ref.ModelBytes {
		t.Fatalf("accounting diverged: hops %d/%d, model bytes %d/%d",
			fast.Hops, ref.Hops, fast.ModelBytes, ref.ModelBytes)
	}
	for i := range fast.Merged {
		fe, re := fast.Merged[i].Encode(nil), ref.Merged[i].Encode(nil)
		if string(fe) != string(re) {
			t.Fatalf("broker %d: merged state diverged between Run and runReference (%d vs %d bytes)",
				i, len(fe), len(re))
		}
	}
}

package propagation

import (
	"fmt"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// buildSummaries gives every broker one distinctive subscription so merged
// summaries are traceable: broker i subscribes num00 = 1000000+i.
func buildSummaries(t testing.TB, g *topology.Graph) ([]*summary.Summary, *schema.Schema) {
	t.Helper()
	s := schema.MustNew(schema.Attribute{Name: "num00", Type: schema.TypeFloat})
	out := make([]*summary.Summary, g.Len())
	for i := range out {
		out[i] = summary.New(s, interval.Lossy)
		sub, err := schema.NewSubscription(s, schema.Constraint{
			Attr: 0, Op: schema.OpEQ, Value: schema.FloatValue(float64(1000000 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		id := subid.ID{Broker: subid.BrokerID(i), Local: 0}
		if err := out[i].Insert(id, sub); err != nil {
			t.Fatal(err)
		}
	}
	return out, s
}

// TestFigure7Walkthrough replays the paper's Figure 7 propagation example
// and checks every fact the text states.
func TestFigure7Walkthrough(t *testing.T) {
	g := topology.Figure7Tree()
	own, _ := buildSummaries(t, g)
	res, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// Iteration 1: the seven degree-1 brokers (1,3,4,6,9,12,13) send.
	var iter1 []int
	for _, s := range res.Sends {
		if s.Iteration == 1 {
			iter1 = append(iter1, int(s.From)+1)
		}
	}
	wantIter1 := []int{1, 3, 4, 6, 9, 12, 13}
	if len(iter1) != len(wantIter1) {
		t.Fatalf("iteration-1 senders = %v, want %v", iter1, wantIter1)
	}
	for i := range wantIter1 {
		if iter1[i] != wantIter1[i] {
			t.Fatalf("iteration-1 senders = %v, want %v", iter1, wantIter1)
		}
	}
	// Iteration 2: brokers 2, 7, 10 send.
	var iter2 []int
	for _, s := range res.Sends {
		if s.Iteration == 2 {
			iter2 = append(iter2, int(s.From)+1)
		}
	}
	if len(iter2) != 3 || iter2[0] != 2 || iter2[1] != 7 || iter2[2] != 10 {
		t.Fatalf("iteration-2 senders = %v, want [2 7 10]", iter2)
	}
	// Broker 2 sends to 5 carrying Merged_Brokers {1,2}.
	for _, s := range res.Sends {
		if s.Iteration == 2 && s.From == 1 {
			if s.To != 4 {
				t.Fatalf("broker 2 sent to %d, want broker 5", int(s.To)+1)
			}
			if len(s.Brokers) != 2 {
				t.Fatalf("broker 2 Merged_Brokers = %v, want {1,2}", s.Brokers)
			}
		}
	}
	// "Broker 5 will have knowledge of the summaries of brokers 1 to 6":
	want5 := []int{0, 1, 2, 3, 4, 5}
	got5 := res.MergedBrokers[4].Bits()
	if len(got5) != len(want5) {
		t.Fatalf("broker 5 Merged_Brokers = %v, want brokers 1-6", got5)
	}
	for i := range want5 {
		if got5[i] != want5[i] {
			t.Fatalf("broker 5 Merged_Brokers = %v, want brokers 1-6", got5)
		}
	}
	// Broker 8 merged brokers 7, 9, 10 (plus itself).
	got8 := res.MergedBrokers[7].Bits()
	want8 := []int{6, 7, 8, 9}
	if len(got8) != len(want8) {
		t.Fatalf("broker 8 Merged_Brokers = %v, want {7,8,9,10}", got8)
	}
	// Hops: fewer than the number of brokers.
	if res.Hops >= g.Len() {
		t.Fatalf("hops = %d, want < %d", res.Hops, g.Len())
	}
	if res.Hops != 10 {
		t.Fatalf("hops = %d, want 10 (7 + 3 sends)", res.Hops)
	}
	if !res.TotalCoverage() {
		t.Fatal("some broker's subscriptions were lost")
	}
	trace := res.FormatTrace()
	if !strings.Contains(trace, "iteration 1:") || !strings.Contains(trace, "broker 2 -> broker 5") {
		t.Fatalf("trace = %s", trace)
	}
}

// TestMergedSummariesMatchCoverage: broker i's merged summary must report
// exactly the subscriptions of the brokers in its Merged_Brokers set.
func TestMergedSummariesMatchCoverage(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.Figure7Tree(),
		topology.CW24(),
		topology.Random(20, 8, 7),
		topology.Ring(9),
		topology.Star(8),
	} {
		own, s := buildSummaries(t, g)
		res, err := Run(g, own, DefaultCostModel())
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		for i := 0; i < g.Len(); i++ {
			for j := 0; j < g.Len(); j++ {
				ev, err := schema.NewEvent(s, map[string]schema.Value{
					"num00": schema.FloatValue(float64(1000000 + j)),
				})
				if err != nil {
					t.Fatal(err)
				}
				matched := res.Merged[i].Match(ev)
				wantMatch := res.MergedBrokers[i].Has(j)
				if wantMatch && (len(matched) != 1 || matched[0].Broker != subid.BrokerID(j)) {
					t.Fatalf("%s: broker %d should know broker %d's subscription, got %v",
						g.Name(), i, j, matched)
				}
				if !wantMatch && len(matched) != 0 {
					t.Fatalf("%s: broker %d reported unknown broker %d's subscription",
						g.Name(), i, j)
				}
			}
		}
	}
}

func TestHopsAlwaysBelowBrokerCount(t *testing.T) {
	// Each broker sends at most once, so hops ≤ n on any topology. On
	// irregular topologies (the paper's backbone case) at least the
	// maximum-degree broker has no eligible target, giving the strict
	// "< number of brokers" of Section 5.2.1. Fully regular graphs (ring,
	// grid interiors) can reach exactly n.
	strict := []*topology.Graph{
		topology.CW24(),
		topology.RandomTree(30, 4),
		topology.Star(10),
		topology.Figure7Tree(),
	}
	for _, g := range strict {
		own, _ := buildSummaries(t, g)
		res, err := Run(g, own, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops >= g.Len() {
			t.Errorf("%s: hops = %d, want < %d brokers", g.Name(), res.Hops, g.Len())
		}
		if !res.TotalCoverage() {
			t.Errorf("%s: coverage lost", g.Name())
		}
	}
	loose := []*topology.Graph{
		topology.Random(40, 20, 3),
		topology.Grid(5, 5),
		topology.Ring(12),
	}
	for _, g := range loose {
		own, _ := buildSummaries(t, g)
		res, err := Run(g, own, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops > g.Len() {
			t.Errorf("%s: hops = %d, want ≤ %d brokers", g.Name(), res.Hops, g.Len())
		}
		if !res.TotalCoverage() {
			t.Errorf("%s: coverage lost", g.Name())
		}
	}
}

func TestEachBrokerSendsAtMostOnce(t *testing.T) {
	g := topology.CW24()
	own, _ := buildSummaries(t, g)
	res, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[topology.NodeID]int)
	for _, s := range res.Sends {
		seen[s.From]++
		if s.Iteration != g.Degree(s.From) {
			t.Errorf("broker %d sent in iteration %d but has degree %d",
				s.From, s.Iteration, g.Degree(s.From))
		}
		if g.Degree(s.To) < g.Degree(s.From) {
			t.Errorf("broker %d (deg %d) sent to lower-degree %d (deg %d)",
				s.From, g.Degree(s.From), s.To, g.Degree(s.To))
		}
		if !g.HasEdge(s.From, s.To) {
			t.Errorf("send %d->%d is not an overlay edge", s.From, s.To)
		}
	}
	for node, count := range seen {
		if count > 1 {
			t.Errorf("broker %d sent %d times", node, count)
		}
	}
}

func TestBandwidthAccountingPositive(t *testing.T) {
	g := topology.CW24()
	gen, err := workload.NewGenerator(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	own := make([]*summary.Summary, g.Len())
	for i := range own {
		own[i] = summary.New(gen.Schema(), interval.Lossy)
		for j := 0; j < 20; j++ {
			id := subid.ID{Broker: subid.BrokerID(i), Local: subid.LocalID(j)}
			if err := own[i].Insert(id, gen.Subscription()); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelBytes <= 0 || res.WireBytes <= 0 {
		t.Fatalf("bytes = %d model / %d wire", res.ModelBytes, res.WireBytes)
	}
	var sum int64
	for _, s := range res.Sends {
		if s.ModelBytes <= 0 {
			t.Fatalf("send %+v has no model bytes", s)
		}
		sum += int64(s.ModelBytes)
	}
	if sum != res.ModelBytes {
		t.Fatalf("send sum %d != total %d", sum, res.ModelBytes)
	}
	// Own summaries must not be mutated by the run.
	if own[0].NumSubscriptions() != 20 {
		t.Fatal("input summary mutated")
	}
}

func TestRunValidation(t *testing.T) {
	g := topology.Ring(3)
	if _, err := Run(g, nil, DefaultCostModel()); err == nil {
		t.Fatal("nil summaries accepted")
	}
	own, _ := buildSummaries(t, g)
	own[1] = nil
	if _, err := Run(g, own, DefaultCostModel()); err == nil {
		t.Fatal("nil summary accepted")
	}
}

func TestSingleBrokerDegenerate(t *testing.T) {
	g := topology.New("solo", 1)
	s := schema.MustNew(schema.Attribute{Name: "x", Type: schema.TypeInt})
	own := []*summary.Summary{summary.New(s, interval.Lossy)}
	res, err := Run(g, own, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops != 0 || !res.TotalCoverage() {
		t.Fatalf("res = %+v", res)
	}
}

// formatSchedule renders a schedule one iteration a line, "from>to" per
// send, with 0-based node ids.
func formatSchedule(rounds []Round) string {
	var b strings.Builder
	for _, r := range rounds {
		fmt.Fprintf(&b, "%d:", r.Iteration)
		for _, h := range r.Sends {
			fmt.Fprintf(&b, " %d>%d", h.From, h.To)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSchedule pins the Algorithm 2 target rule on the whole schedule of
// three overlays. The facts each case is there for:
//
//   - figure7: the paper's walkthrough. Node 6 (degree 2) has neighbours 4
//     (degree 5) and 7 (degree 3) and sends to 7 — the smallest strictly
//     higher degree wins; node 4, the maximum-degree broker, sends to
//     nobody, and neither do 7 and 10 (degree 3), all of whose neighbours
//     have lower degree.
//   - ring-9: every neighbour has equal degree, so the fallback (smallest
//     id) is all there is. Node 1 would pick 0 but has just received from
//     it — the receiving side of an exchange is blocked too — so it sends to
//     2, and so on round the ring until 8, whose neighbour 0 sent elsewhere
//     and is still free.
//   - cw24: equal degree only as a fallback. Nodes 15 and 16 (degree 2) are
//     neighbours of each other and of 14 (degree 5): both send to 14. Node
//     4 (degree 3) prefers 1 (degree 4) to its equal-degree neighbours 0
//     and 5; node 13 (degree 4) prefers 14 (degree 5) to 11 (degree 6); the
//     hub 9 (degree 9) never sends.
//
// Whatever the overlay: a broker sends at most once, in the iteration of
// its degree, over an overlay edge, never to a lower degree; no pair
// exchanges twice in a phase; and the schedule is a function of the overlay
// alone, so a new period starts clean (asking twice gives the same answer).
func TestSchedule(t *testing.T) {
	for _, tc := range []struct {
		g    *topology.Graph
		want string
	}{
		{topology.Figure7Tree(), "" +
			"1: 0>1 2>4 3>4 5>4 8>7 11>10 12>10\n" +
			"2: 1>4 6>7 9>7\n"},
		{topology.Ring(9), "" +
			"2: 0>1 1>2 2>3 3>4 4>5 5>6 6>7 7>8 8>0\n"},
		{topology.CW24(), "" +
			"2: 3>2 7>22 10>21 12>22 15>14 16>14 17>13 18>9 19>9 20>0 23>13\n" +
			"3: 0>1 2>1 4>1 5>8 21>6 22>11\n" +
			"4: 1>9 8>6 13>14\n" +
			"5: 14>9\n" +
			"6: 6>9 11>9\n"},
		{topology.Random(40, 20, 3), ""},
		{topology.Grid(5, 5), ""},
	} {
		g := tc.g
		rounds := Schedule(g)
		got := formatSchedule(rounds)
		if tc.want != "" && got != tc.want {
			t.Errorf("%s: schedule =\n%swant\n%s", g.Name(), got, tc.want)
		}
		if again := formatSchedule(Schedule(g)); again != got {
			t.Errorf("%s: second schedule differs:\n%svs\n%s", g.Name(), again, got)
		}
		sent := make(map[topology.NodeID]bool)
		exchanged := make(map[[2]topology.NodeID]bool)
		lastIter := 0
		for _, r := range rounds {
			if r.Iteration <= lastIter || len(r.Sends) == 0 {
				t.Errorf("%s: iteration %d after %d with %d sends", g.Name(), r.Iteration, lastIter, len(r.Sends))
			}
			lastIter = r.Iteration
			for i, h := range r.Sends {
				if i > 0 && h.From <= r.Sends[i-1].From {
					t.Errorf("%s: iteration %d senders not ascending: %v", g.Name(), r.Iteration, r.Sends)
				}
				if sent[h.From] {
					t.Errorf("%s: broker %d sends twice", g.Name(), h.From)
				}
				sent[h.From] = true
				if g.Degree(h.From) != r.Iteration || g.Degree(h.To) < r.Iteration || !g.HasEdge(h.From, h.To) {
					t.Errorf("%s: iteration %d has send %d(deg %d)>%d(deg %d), edge=%v", g.Name(), r.Iteration,
						h.From, g.Degree(h.From), h.To, g.Degree(h.To), g.HasEdge(h.From, h.To))
				}
				pair := [2]topology.NodeID{min(h.From, h.To), max(h.From, h.To)}
				if exchanged[pair] {
					t.Errorf("%s: brokers %d and %d exchange twice in one phase", g.Name(), pair[0], pair[1])
				}
				exchanged[pair] = true
			}
		}
	}
}

// TotalCoverage reports whether the union of all Merged_Brokers sets
// covers every broker (it always should: each broker is in its own set).
func (r *Result) TotalCoverage() bool {
	n := len(r.MergedBrokers)
	union := subid.NewMask(n)
	for _, set := range r.MergedBrokers {
		for _, b := range set.Bits() {
			union.Set(b)
		}
	}
	return union.Count() == n
}

package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/metrics"
)

// quick returns a configuration small enough for unit tests while keeping
// the qualitative shape of every figure.
func quick() Config {
	cfg := Default()
	cfg.Sigmas = []int{10, 100}
	cfg.Subsumptions = []float64{0.10, 0.90}
	cfg.Popularities = []float64{0.10, 1.00}
	cfg.EventsPerBroker = 50
	return cfg
}

// cell parses a numeric table cell from the CSV rendering.
func cells(t *testing.T, csv string) [][]float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	var out [][]float64
	for _, line := range lines[1:] {
		var row []float64
		for _, c := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
			if err != nil {
				v = -1 // non-numeric label cell
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

// TestFig8Shape checks the paper's headline claims: both Siena and the
// summaries beat broadcast by orders of magnitude, and summaries beat
// Siena by a substantial factor (the paper reports 4–8×) at every σ.
func TestFig8Shape(t *testing.T) {
	tab, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sigma, bcast, siena10, sum10, siena90, sum90 := r[0], r[1], r[2], r[3], r[4], r[5]
		if bcast < 2*siena10 {
			t.Errorf("sigma %.0f: broadcast %.0f not > siena %.0f", sigma, bcast, siena10)
		}
		// The paper's headline: summaries beat Siena by roughly 4-8x.
		if siena10 < 3*sum10 {
			t.Errorf("sigma %.0f: summary-10%% %.0f does not clearly beat siena-10%% %.0f", sigma, sum10, siena10)
		}
		if siena90 < 3*sum90 {
			t.Errorf("sigma %.0f: summary-90%% %.0f does not clearly beat siena-90%% %.0f", sigma, sum90, siena90)
		}
		// And sit well over an order of magnitude below broadcast.
		if bcast < 20*sum10 {
			t.Errorf("sigma %.0f: summary-10%% %.0f not ≪ broadcast %.0f", sigma, sum10, bcast)
		}
	}
}

// TestFig9Shape: ours is flat and below the broker count; Siena's hops
// decrease with subsumption and sit far above ours.
func TestFig9Shape(t *testing.T) {
	cfg := quick()
	tab, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	n := float64(cfg.Topo.Len())
	var ours []float64
	for _, r := range rows {
		sienaHops, ourHops := r[1], r[2]
		if ourHops >= n {
			t.Errorf("our hops %.0f not < brokers %.0f", ourHops, n)
		}
		if sienaHops <= ourHops*3 {
			t.Errorf("siena %.1f not ≫ ours %.1f", sienaHops, ourHops)
		}
		ours = append(ours, ourHops)
	}
	for i := 1; i < len(ours); i++ {
		if ours[i] != ours[0] {
			t.Errorf("our hops vary with subsumption: %v", ours)
		}
	}
	// Siena decreases as subsumption rises (first row = 10%, last = 90%).
	if rows[len(rows)-1][1] >= rows[0][1] {
		t.Errorf("siena hops do not fall with subsumption: %v vs %v", rows[0][1], rows[len(rows)-1][1])
	}
}

// TestFig10Shape: ours wins at low popularity; at full popularity Siena is
// competitive or better (the paper's crossover for very popular events).
func TestFig10Shape(t *testing.T) {
	tab, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	lowOurs, lowSiena := rows[0][1], rows[0][2]
	highOurs, highSiena := rows[1][1], rows[1][2]
	if lowOurs >= lowSiena {
		t.Errorf("popularity 10%%: ours %.2f not < siena %.2f", lowOurs, lowSiena)
	}
	// At full popularity Siena's reverse-path multicast wins (the paper's
	// crossover: "for very highly popular events, Siena is better").
	if highSiena > highOurs {
		t.Errorf("popularity 100%%: siena %.2f not ≤ ours %.2f", highSiena, highOurs)
	}
	// And the gap closes monotonically.
	lowGap := lowSiena - lowOurs
	highGap := highSiena - highOurs
	if highGap >= lowGap {
		t.Errorf("gap does not close: low %.2f, high %.2f", lowGap, highGap)
	}
}

// TestFig11Shape: summaries need the least storage; Siena at low
// subsumption approaches broadcast (the paper's observation).
func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	for _, r := range rows {
		s, bcast, siena10, sum10, siena90, sum90 := r[0], r[1], r[2], r[3], r[4], r[5]
		if sum10 >= siena10 {
			t.Errorf("subs %.0f: summary-10%% %.0f not < siena-10%% %.0f", s, sum10, siena10)
		}
		if sum90 >= siena90 {
			t.Errorf("subs %.0f: summary-90%% %.0f not < siena-90%% %.0f", s, sum90, siena90)
		}
		// Siena at 10% subsumption within 35% of broadcast.
		if siena10 < 0.65*bcast {
			t.Errorf("subs %.0f: siena-10%% %.0f not close to broadcast %.0f", s, siena10, bcast)
		}
	}
}

// TestMatchingCostLinear: Section 5.2.4's O(N): per-event cost at 16×
// subscriptions stays within ~32× of the small case (generous bound for a
// noisy CI machine; true growth should be ≈ linear).
func TestMatchingCostLinear(t *testing.T) {
	tab, err := MatchingCost(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	factorN := last[0] / first[0] // 16×
	factorT := last[1] / first[1] // time growth
	if factorT > factorN*4 {
		t.Errorf("matching cost superlinear: N×%.0f, time×%.1f", factorN, factorT)
	}
}

func TestFig7Trace(t *testing.T) {
	out, err := Fig7Trace()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"iteration 1:",
		"broker 2 -> broker 5",
		"examine broker 1",
		"examine broker 5",
		"deliver to broker 4",
		"deliver to broker 13",
		"forward hops 3, delivery hops 2, total 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	tab := Table2(Default())
	out := tab.String()
	for _, want := range []string{"n_t", "sigma", "cw24"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestAblationBatch(t *testing.T) {
	tab, err := AblationBatch(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	// Bytes per subscription must fall as σ grows (amortization).
	if rows[len(rows)-1][2] >= rows[0][2] {
		t.Errorf("batching does not amortize: %v", rows)
	}
}

// TestAblationSubsumptionCombo pins the Section 6 summarization +
// subsumption table row for row: it is the only home of that claim, and
// it reads only the topology, workload, seed and cost model, which quick()
// shares with Default(), so these are EXPERIMENTS.md's rows.
func TestAblationSubsumptionCombo(t *testing.T) {
	tab, err := AblationSubsumptionCombo(quick())
	if err != nil {
		t.Fatal(err)
	}
	const want = `anchored%,plain bytes,filtered bytes,saved%,subs filtered%
25,284134,267798,5.749,6.833
50,268250,209710,21.823,25.458
75,254377,143501,43.587,46.292
95,244597,90793,62.881,64.792
`
	if got := tab.CSV(); got != want {
		t.Fatalf("ablation rows changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestCrossTopologyShapesHold: the paper's "results are similar in all
// cases" claim — on every tested overlay, summaries beat Siena on
// bandwidth and propagation hops stay at or below the broker count.
func TestCrossTopologyShapesHold(t *testing.T) {
	tab, err := CrossTopology(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		brokers, bcast, sienaB, summaryB, factor, propHops := r[1], r[2], r[3], r[4], r[5], r[6]
		if summaryB >= sienaB {
			t.Errorf("row %d: summary %.0f !< siena %.0f", i, summaryB, sienaB)
		}
		if sienaB >= bcast {
			t.Errorf("row %d: siena %.0f !< broadcast %.0f", i, sienaB, bcast)
		}
		if factor < 2 {
			t.Errorf("row %d: siena/summary factor %.1f < 2", i, factor)
		}
		if propHops > brokers {
			t.Errorf("row %d: propagation hops %.0f > brokers %.0f", i, propHops, brokers)
		}
	}
}

// TestSizeModelValidation: the Section 5.1 analytic equations must predict
// the measured summary size within 10% at every (σ, subsumption) point.
func TestSizeModelValidation(t *testing.T) {
	tab, err := SizeModelValidation(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, tab.CSV())
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if e := r[4]; e > 10 || e < -10 {
			t.Errorf("sigma %.0f p %.0f%%: prediction error %.1f%% exceeds 10%%", r[0], r[1], e)
		}
	}
}

func TestTable1(t *testing.T) {
	out := Table1().String()
	for _, sym := range []string{"n_t", "n_sr", "L_a", "s_id", "n_ae"} {
		if !strings.Contains(out, sym) {
			t.Errorf("Table1 missing %q", sym)
		}
	}
}

// TestParallelSweepDeterminism: regenerating the figures under the
// parallel event sweep must produce byte-identical tables to a serial
// run, at any worker count. MatchingCost's counter columns (everything
// except wall-clock timing) must agree the same way.
func TestParallelSweepDeterminism(t *testing.T) {
	serial := quick()
	serial.Workers = 1
	parallel := quick()
	parallel.Workers = 4
	figs := []struct {
		name string
		run  func(Config) (*metrics.Table, error)
	}{
		{"Fig8", Fig8},
		{"Fig9", Fig9},
		{"Fig10", Fig10},
		{"Fig11", Fig11},
	}
	for _, f := range figs {
		want, err := f.run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", f.name, err)
		}
		got, err := f.run(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", f.name, err)
		}
		if want.CSV() != got.CSV() {
			t.Errorf("%s differs between serial and parallel sweeps:\nserial:\n%s\nparallel:\n%s",
				f.name, want.CSV(), got.CSV())
		}
	}
	// MatchingCost reports wall-clock columns; compare only the counters.
	wantMC, err := MatchingCost(serial)
	if err != nil {
		t.Fatal(err)
	}
	gotMC, err := MatchingCost(parallel)
	if err != nil {
		t.Fatal(err)
	}
	wantCells, gotCells := cells(t, wantMC.CSV()), cells(t, gotMC.CSV())
	if len(wantCells) != len(gotCells) {
		t.Fatalf("MatchingCost row count differs: %d vs %d", len(wantCells), len(gotCells))
	}
	for r := range wantCells {
		for _, c := range []int{0, 2, 3, 4} { // subscriptions, T1, T2, matched
			if wantCells[r][c] != gotCells[r][c] {
				t.Errorf("MatchingCost row %d col %d: serial %v parallel %v",
					r, c, wantCells[r][c], gotCells[r][c])
			}
		}
	}
}

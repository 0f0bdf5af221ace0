package experiments

import "testing"

// TestOverlayScalingReduced is the CI-sized sweep: ≤128 brokers, fewer
// events. OverlayScaling itself checks every event's delivery set against
// brute force (every broker whose own summary matches), so a run that
// returns rows has lost no delivery.
//
// Every row's bytes/period and hops/event are seeded-deterministic, so
// they are pinned exactly: any move is an algorithmic change to
// Algorithm 2 or Algorithm 3, and must be explained by updating this
// table in the same change.
func TestOverlayScalingReduced(t *testing.T) {
	cfg := DefaultOverlay()
	cfg.Sizes = []int{24, 64, 128}
	cfg.Events = 60
	cfg.Sigma = 20
	rows, err := OverlayScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		brokers int
		bytes   int64 // BytesPerPeriod
		hops    int   // HopsPerEvent × Events
	}{
		{24, 20931, 583},
		{64, 55999, 1027},
		{128, 123826, 1732},
	}
	if len(rows) != len(want) {
		t.Fatalf("expected %d rows, got %d", len(want), len(rows))
	}
	for i, w := range want {
		r := rows[i]
		if r.Brokers != w.brokers {
			t.Fatalf("row %d is n=%d, want n=%d", i, r.Brokers, w.brokers)
		}
		if r.BytesPerPeriod != w.bytes {
			t.Errorf("n=%d: bytes/period %d, pinned %d", w.brokers, r.BytesPerPeriod, w.bytes)
		}
		if wantHops := float64(w.hops) / float64(cfg.Events); r.HopsPerEvent != wantHops {
			t.Errorf("n=%d: hops/event %v, pinned %v", w.brokers, r.HopsPerEvent, wantHops)
		}
		if r.Delivered == 0 {
			t.Fatalf("n=%d: no deliveries — sweep degenerate", w.brokers)
		}
	}
}

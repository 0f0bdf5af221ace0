package experiments

import "testing"

// TestOverlayScalingReduced is the CI-sized sweep: ≤128 brokers, fewer
// events. The per-event delivery-set equivalence runs inside
// OverlayScaling itself; here we additionally require the headline
// claims to hold already at 128 brokers — subgrouping must cut both the
// propagation traffic and the routing hops, and keep the per-broker
// merged state below the flat high-water mark.
//
// Every row's bytes/period and hops/event are seeded-deterministic, so
// they are pinned exactly: any move is an algorithmic change to
// Algorithm 2, Algorithm 3 or subgrouping, and must be explained by
// updating this table in the same change.
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
		mode    string
		bytes   int64 // BytesPerPeriod
		hops    int   // HopsPerEvent × Events
	}{
		{24, "flat", 20931, 583},
		{24, "subgrouped", 23911, 480},
		{64, "flat", 55999, 1027},
		{64, "subgrouped", 70011, 610},
		{128, "flat", 123826, 1732},
		{128, "subgrouped", 144762, 861},
	}
	if len(rows) != len(want) {
		t.Fatalf("expected %d rows, got %d", len(want), len(rows))
	}
	for i, w := range want {
		r := rows[i]
		if r.Brokers != w.brokers || r.Mode != w.mode {
			t.Fatalf("row %d is n=%d %s, want n=%d %s", i, r.Brokers, r.Mode, w.brokers, w.mode)
		}
		if r.BytesPerPeriod != w.bytes {
			t.Errorf("n=%d %s: bytes/period %d, pinned %d", w.brokers, w.mode, r.BytesPerPeriod, w.bytes)
		}
		if wantHops := float64(w.hops) / float64(cfg.Events); r.HopsPerEvent != wantHops {
			t.Errorf("n=%d %s: hops/event %v, pinned %v", w.brokers, w.mode, r.HopsPerEvent, wantHops)
		}
	}
	byMode := map[string]map[int]OverlayRow{"flat": {}, "subgrouped": {}}
	for _, r := range rows {
		byMode[r.Mode][r.Brokers] = r
	}
	for _, n := range cfg.Sizes {
		flat, sub := byMode["flat"][n], byMode["subgrouped"][n]
		if flat.Brokers != n || sub.Brokers != n {
			t.Fatalf("missing rows for n=%d", n)
		}
		if flat.Delivered != sub.Delivered {
			t.Fatalf("n=%d: delivered counts differ: flat %d, subgrouped %d", n, flat.Delivered, sub.Delivered)
		}
		if flat.Delivered == 0 {
			t.Fatalf("n=%d: no deliveries — sweep degenerate", n)
		}
	}
	flat, sub := byMode["flat"][128], byMode["subgrouped"][128]
	// The headline wins: routing hops, cross-border traffic, and the
	// per-broker state high-water mark. Total subgrouped bytes run
	// slightly above flat (member uploads plus the digest mesh) — the
	// documented trade; see EXPERIMENTS.md.
	if sub.HopsPerEvent >= flat.HopsPerEvent {
		t.Errorf("n=128: subgrouped hops/event %.1f not below flat %.1f", sub.HopsPerEvent, flat.HopsPerEvent)
	}
	if sub.DigestBytes >= flat.BytesPerPeriod {
		t.Errorf("n=128: subgrouped cross-border bytes %d not below flat period bytes %d",
			sub.DigestBytes, flat.BytesPerPeriod)
	}
	if sub.PeakMergedBytes >= flat.PeakMergedBytes {
		t.Errorf("n=128: subgrouped peak merged bytes %d not below flat %d", sub.PeakMergedBytes, flat.PeakMergedBytes)
	}
	if sub.Groups < 2 {
		t.Errorf("n=128: only %d subgroup(s)", sub.Groups)
	}
}

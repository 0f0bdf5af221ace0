package workload

import (
	"bytes"
	"testing"

	"github.com/subsum/subsum/internal/schema"
)

func TestChurnConfigValidate(t *testing.T) {
	if err := (ChurnConfig{Rate: 10, MeanLifetime: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ChurnConfig{Rate: 0, MeanLifetime: 2}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	if err := (ChurnConfig{Rate: 10, MeanLifetime: 0.5}).Validate(); err == nil {
		t.Error("sub-period lifetime accepted")
	}
}

// TestChurnSteadyState: the live population ramps to ~Rate*MeanLifetime
// and stays there, with deaths never preceding a full period of life.
func TestChurnSteadyState(t *testing.T) {
	g := mustGen(t, DefaultConfig())
	ch, err := NewChurn(g, ChurnConfig{Rate: 100, MeanLifetime: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := ch.SteadyStateLive()
	if target != 400 {
		t.Fatalf("SteadyStateLive = %d, want 400", target)
	}
	born := make(map[int]int) // handle -> birth period
	for p := 0; p < 60; p++ {
		cp := ch.Period()
		for _, h := range cp.Died {
			bp, ok := born[h]
			if !ok {
				t.Fatalf("period %d: unknown handle %d died", p, h)
			}
			if bp >= p {
				t.Fatalf("handle %d died in its birth period", h)
			}
			delete(born, h)
		}
		for _, b := range cp.Born {
			if b.Sub == nil {
				t.Fatalf("period %d: nil subscription", p)
			}
			born[b.Handle] = p
		}
		if ch.Live() != len(born) {
			t.Fatalf("period %d: Live() = %d, tracked %d", p, ch.Live(), len(born))
		}
		if p >= 30 {
			// Well past ramp-up: population fluctuates around the target.
			if lo, hi := target/2, target*2; ch.Live() < lo || ch.Live() > hi {
				t.Fatalf("period %d: live %d outside [%d, %d]", p, ch.Live(), lo, hi)
			}
		}
	}
}

// TestChurnFixedLifetime: the sliding-window distribution retires every
// subscription after exactly MeanLifetime periods.
func TestChurnFixedLifetime(t *testing.T) {
	g := mustGen(t, DefaultConfig())
	ch, err := NewChurn(g, ChurnConfig{Rate: 10, MeanLifetime: 3, Dist: LifetimeFixed, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 10; p++ {
		cp := ch.Period()
		if p < 3 {
			if len(cp.Died) != 0 {
				t.Fatalf("period %d: %d deaths before the window filled", p, len(cp.Died))
			}
			continue
		}
		if len(cp.Died) != 10 {
			t.Fatalf("period %d: %d deaths, want the whole cohort of 10", p, len(cp.Died))
		}
		// The cohort born exactly MeanLifetime periods ago dies, in order.
		want := (p - 3) * 10
		for i, h := range cp.Died {
			if h != want+i {
				t.Fatalf("period %d: died[%d] = %d, want %d", p, i, h, want+i)
			}
		}
	}
	if ch.Live() != 30 {
		t.Fatalf("window population = %d, want Rate*MeanLifetime = 30", ch.Live())
	}
}

// TestChurnDeterminism: same seeds, same stream.
func TestChurnDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a, err := NewChurn(mustGen(t, cfg), ChurnConfig{Rate: 20, MeanLifetime: 2.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChurn(mustGen(t, cfg), ChurnConfig{Rate: 20, MeanLifetime: 2.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 20; p++ {
		pa, pb := a.Period(), b.Period()
		if len(pa.Died) != len(pb.Died) || len(pa.Born) != len(pb.Born) {
			t.Fatalf("period %d: shape diverged", p)
		}
		for i := range pa.Died {
			if pa.Died[i] != pb.Died[i] {
				t.Fatalf("period %d: deaths diverged at %d", p, i)
			}
		}
		for i := range pa.Born {
			ea := schema.EncodeSubscription(nil, pa.Born[i].Sub)
			eb := schema.EncodeSubscription(nil, pb.Born[i].Sub)
			if pa.Born[i].Handle != pb.Born[i].Handle || !bytes.Equal(ea, eb) {
				t.Fatalf("period %d: births diverged at %d", p, i)
			}
		}
	}
}

// SteadyStateLive returns the live count the stream converges to.
func (c *Churn) SteadyStateLive() int {
	return int(float64(c.cfg.Rate)*c.cfg.MeanLifetime + 0.5)
}

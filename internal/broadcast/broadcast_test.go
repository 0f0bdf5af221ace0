package broadcast

import (
	"testing"

	"github.com/subsum/subsum/internal/topology"
)

func TestPropagateModelMatchesExactOnRing(t *testing.T) {
	// On a symmetric graph the mean-hops model and the exact walk agree.
	g := topology.Ring(8)
	model := Propagate(g, 10, 50)
	exact := PropagateExact(g, 10, 50)
	if model.Hops != exact.Hops {
		t.Fatalf("model hops %d != exact %d", model.Hops, exact.Hops)
	}
	if model.Bytes != exact.Bytes {
		t.Fatalf("model bytes %d != exact %d", model.Bytes, exact.Bytes)
	}
	if model.StorageBytes != exact.StorageBytes {
		t.Fatalf("storage %d != %d", model.StorageBytes, exact.StorageBytes)
	}
}

func TestPropagateScalesLinearlyInSigma(t *testing.T) {
	g := topology.CW24()
	a := PropagateExact(g, 10, 50)
	b := PropagateExact(g, 100, 50)
	if b.Hops != 10*a.Hops || b.Bytes != 10*a.Bytes || b.StorageBytes != 10*a.StorageBytes {
		t.Fatalf("not linear: %+v vs %+v", a, b)
	}
}

func TestStorageFormula(t *testing.T) {
	g := topology.CW24()
	s := Propagate(g, 7, 50)
	want := int64(24 * 24 * 7 * 50)
	if s.StorageBytes != want {
		t.Fatalf("storage = %d, want %d", s.StorageBytes, want)
	}
}

func TestModelCloseToExactOnBackbone(t *testing.T) {
	g := topology.CW24()
	model := Propagate(g, 50, 50)
	exact := PropagateExact(g, 50, 50)
	ratio := float64(model.Hops) / float64(exact.Hops)
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("model/exact hops ratio = %.4f", ratio)
	}
}

// PropagateExact walks the overlay instead of using the mean-hops model:
// each subscription travels the BFS shortest path to every other broker
// individually (no multicast sharing — the baseline is deliberately
// naive). It returns the same accounting, exactly.
func PropagateExact(g *topology.Graph, sigma, subSize int) Stats {
	var stats Stats
	n := g.Len()
	for src := 0; src < n; src++ {
		dist, _ := g.BFSFrom(topology.NodeID(src))
		var pathHops int64
		for dst, d := range dist {
			if dst != src && d > 0 {
				pathHops += int64(d)
			}
		}
		stats.Hops += pathHops * int64(sigma)
	}
	stats.Bytes = stats.Hops * int64(subSize)
	stats.StorageBytes = int64(n) * int64(n) * int64(sigma) * int64(subSize)
	return stats
}

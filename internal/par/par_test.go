package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// widths are the pool sizes every property is checked at: inline, a real
// pool, more workers than items, and the one-per-CPU default.
var widths = []int{1, 2, 4, 64, 0}

// TestSweepVisitsEveryIndexOnce is the ordered-merge contract: each index
// runs exactly once, and slot-i writes give the same result at any width.
func TestSweepVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, w := range widths {
		visits := make([]atomic.Int32, n)
		out := make([]int, n)
		Sweep(n, w, func(i int) {
			visits[i].Add(1)
			out[i] = i * i
		})
		for i := range out {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
			if out[i] != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", w, i, out[i], i*i)
			}
		}
	}
}

// TestSweepInlineRunsInOrder: width 1 is a plain loop on the caller's
// goroutine, so unsynchronized order-dependent state is allowed there.
func TestSweepInlineRunsInOrder(t *testing.T) {
	var order []int
	Sweep(50, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline sweep order = %v", order)
		}
	}
	if len(order) != 50 {
		t.Fatalf("inline sweep ran %d of 50 indices", len(order))
	}
}

func TestSweepZeroItems(t *testing.T) {
	for _, n := range []int{0, -3} {
		for _, w := range widths {
			Sweep(n, w, func(int) { t.Errorf("fn called for n=%d workers=%d", n, w) })
			if err := SweepErr(max(n, 0), w, func(int) error {
				t.Errorf("fn called for n=%d workers=%d", n, w)
				return errors.New("unreachable")
			}); err != nil {
				t.Fatalf("SweepErr over nothing = %v", err)
			}
		}
	}
}

// TestSweepErrReturnsLowestFailingIndex: the error is the lowest failing
// index's whatever the schedule, and a failure stops no other index.
func TestSweepErrReturnsLowestFailingIndex(t *testing.T) {
	const n = 500
	fails := map[int]bool{37: true, 38: true, 250: true, n - 1: true}
	for _, w := range widths {
		for rep := 0; rep < 20; rep++ {
			var ran atomic.Int32
			err := SweepErr(n, w, func(i int) error {
				ran.Add(1)
				if fails[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 37" {
				t.Fatalf("workers=%d: err = %v, want the lowest failing index (37)", w, err)
			}
			if got := ran.Load(); got != n {
				t.Fatalf("workers=%d: %d of %d indices ran after a failure", w, got, n)
			}
		}
		if err := SweepErr(n, w, func(int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: clean sweep returned %v", w, err)
		}
	}
}

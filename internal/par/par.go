// Package par is the repo's single bounded-worker-pool primitive, a leaf
// package so that propagation, subgroup and the experiment sweeps can fan
// work out without importing the live engine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep runs fn(i) for every i in [0, n) across a bounded pool of worker
// goroutines. workers <= 0 means one per available CPU; workers == 1 runs
// inline with no goroutines. Indices are handed out by an atomic counter,
// so results are deterministic as long as fn(i) writes only to index-i
// state (the ordered-merge pattern: fill slot i, combine after Sweep
// returns). Sweep returns when every index has completed.
func Sweep(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SweepErr is Sweep for per-index functions that can fail. Every index
// runs regardless of other indices' failures; the returned error is the
// one from the lowest failing index, which keeps the result independent
// of goroutine scheduling.
func SweepErr(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	Sweep(n, workers, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

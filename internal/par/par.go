// Package par provides the bounded worker pools used by the analysis
// pipeline (logicsim sensitization DP, aserta's electrical pass,
// charlib characterization and the golden simulator). Every use in
// this repository follows the same discipline: work items are
// independent, each item writes only its own output slots, and any
// reduction happens afterwards in deterministic item order — so
// results are identical regardless of worker count or scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: n > 0 is used as given,
// anything else means one worker per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines
// (Workers semantics for workers <= 0): Each with chunks of one index,
// so each index runs exactly once. fn must confine its writes to slots
// owned by index i.
func For(n, workers int, fn func(i int)) {
	Each(n, workers, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Each splits [0, n) into contiguous chunks of at most grain items and
// runs fn(w, lo, hi) for each chunk on up to workers goroutines (Workers
// semantics for workers <= 0). Chunks are handed out through an atomic
// counter, so the schedule is dynamic but each index runs exactly once.
// fn also receives the worker index w in [0, workers), letting callers
// give each worker a preallocated scratch arena; scratch reuse is what
// keeps the hot DP loops allocation-free. grain <= 0 picks a chunk size
// that yields about 4 chunks per worker for load balance.
func Each(n, workers, grain int, fn func(worker, lo, hi int)) {
	if n == 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if grain <= 0 {
		grain = (n + 4*w - 1) / (4 * w)
		if grain < 1 {
			grain = 1
		}
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return
	}
	chunks := (n + grain - 1) / grain
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= chunks {
					return
				}
				lo := ci * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(worker, lo, hi)
			}
		}(g)
	}
	wg.Wait()
}

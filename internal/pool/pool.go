// Package pool is the one bounded fan-out primitive: the experiment sweeps,
// the fleet's per-window chip step and trace characterization all run their
// independent jobs through ForEach.
package pool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker bound: w itself when positive, else GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (the calling goroutine participates, so only workers-1 are spawned). Jobs
// are claimed through an atomic cursor, so the schedule is dynamic but the
// caller's result placement — indexed writes into pre-sized slices — is
// deterministic regardless of worker count. Errors are joined in index
// order.
//
// workers <= 1 (or n <= 1) is a plain loop on the caller that allocates
// nothing unless a job fails; fn escapes through the parallel branch, so a
// caller on a hot path builds it once rather than per call. A nested ForEach
// still bounds its own spawn count and always makes progress on the calling
// goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var errs []error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	errs := make([]error, n)
	var cursor atomic.Int64
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for k := 0; k < workers-1; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return errors.Join(errs...)
}

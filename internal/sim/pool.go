// Parallel sweep infrastructure. One simulation run is strictly
// sequential (the kernel is single-threaded by design), but independent
// runs share nothing — each owns its kernel, RNG streams, and stats — so
// a sweep of runs is embarrassingly parallel. ParMap is the bounded
// fan-out primitive the experiment engine (internal/core) builds on.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParMap runs fn(0..n-1) on a bounded pool of worker goroutines and
// returns the results in index (submission) order. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 degenerates to a plain sequential
// loop on the calling goroutine.
//
// Determinism contract: fn must not share mutable state across indices.
// Output placement is by index, so result order never depends on
// completion order. If any fn errors, ParMap returns the error with the
// lowest index — the same error a sequential loop would surface first —
// and a nil slice.
func ParMap[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
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
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

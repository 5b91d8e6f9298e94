package core

import (
	"sync"
	"sync/atomic"
)

// forEach calls fn(i) once for every i in [0, n). When min(w, n) <= 1 the
// calls run inline in index order; otherwise that many goroutines each
// claim the next unclaimed index until none are left, and forEach returns
// once all calls have finished. Callers write results by index and draw any randomness
// from per-index seeds, so the schedule never changes the output.
func forEach(n, w int, fn func(i int)) {
	if w = min(w, n); w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Package runner is the experiment fan-out layer: a worker pool that
// executes independent experiment points across OS threads. Every figure
// and table in the paper's evaluation is a grid of deterministic
// simulations that share nothing — each point builds its own sim.Engine
// and mem.Hierarchy — so they can run concurrently without changing any
// result. Determinism is preserved by collecting results by point index,
// not completion order: the output of Map is byte-for-byte the same at
// any worker count.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a requested worker count: values < 1 mean "one worker
// per available CPU" (runtime.GOMAXPROCS).
func Jobs(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs f(i) for every i in [0, n) on up to jobs concurrent workers
// and returns the results in index order. jobs < 1 uses one worker per
// CPU; jobs == 1 runs inline with no goroutines (exactly the sequential
// behavior). f must not share mutable state across points. A panic in
// any point is re-raised on the caller's goroutine after the remaining
// workers drain.
func Map[T any](jobs, n int, f func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicV == nil {
								panicV = r
							}
							panicMu.Unlock()
						}
					}()
					out[i] = f(i)
				}()
				panicMu.Lock()
				stop := panicV != nil
				panicMu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	return out
}

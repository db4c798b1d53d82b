// Package par provides the bounded worker-pool and deterministic fan-out
// pattern for coarse-grained work: the tenant dispatcher of cmd/ftserve and
// the concurrent experiment runner of cmd/ftbench.
//
// The pattern is always the same: a batch of independent work items — the
// experiments of a suite, the requests of different tenants — is fanned out
// over at most Workers goroutines, and every item writes only its own result slot, so
// the merged output is in item order and bit-identical to a serial run no
// matter how many workers execute it or in which order they finish. A pool
// with one worker runs everything inline on the calling goroutine: the serial
// path is the one-worker special case, not a separate code path.
package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// workerLabels tags every pool worker goroutine for CPU profiling, so
// `go tool pprof -tagfocus pool=par` isolates the samples spent inside the
// fan-out. Built once; pprof.Do on the worker body is outside the
// allocation-free serial path, which never spawns goroutines.
var workerLabels = pprof.Labels("pool", "par")

// Pool is a bounded worker pool. It holds no goroutines between calls — the
// bound is applied per ForEach/Map invocation — so a Pool is cheap to create,
// safe for concurrent use, and never leaks.
type Pool struct {
	workers int
}

// New returns a pool that runs at most workers items concurrently. A value
// <= 0 selects runtime.GOMAXPROCS(0), the number of usable CPUs.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound. A nil pool reports 1 (serial).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for every i in [0, n), using at most min(Workers, n)
// goroutines. Items are claimed dynamically, so uneven item costs still load-
// balance; fn must therefore be safe to call from any goroutine, and distinct
// items must not write shared state. With one worker (or one item) everything
// runs inline on the calling goroutine in index order.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
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
			pprof.Do(context.Background(), workerLabels, func(context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			})
		}()
	}
	wg.Wait()
}

// Map runs fn over [0, n) on the pool and returns the results in index order —
// the deterministic merge: out[i] = fn(i) regardless of worker count or
// completion order.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

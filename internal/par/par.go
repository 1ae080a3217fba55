// Package par is the one index-parallel loop behind every engine's
// fan-out: FTQS candidate positions, certification fault patterns and the
// Monte-Carlo / chaos / dispatch-batch scenario blocks all run through For.
//
// The determinism contract every caller relies on is that what index i
// writes depends only on i: indices are handed out dynamically (so which
// worker runs an index varies from run to run), and callers fold the
// index-addressed outputs in index order afterwards.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For runs every index in [0, n) on min(workers, n) goroutines (workers
// < 1 is treated as 1; a single worker runs on the calling goroutine).
// newWorker is called once per worker, with the worker index, to build the
// function that worker calls for each index it claims — allocate
// per-worker scratch there. Workers claim indices from a shared counter,
// so indices of uneven cost balance dynamically; each worker sees its
// indices in increasing order.
//
// The context is checked before every index. The first error wins: a
// failing index stops its worker, the other workers stop before their next
// index, and For returns that error — ctx.Err() when the run was
// cancelled. For returns only after every worker has exited.
func For(ctx context.Context, n, workers int, newWorker func(w int) func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	var (
		next  atomic.Int64
		stop  atomic.Bool
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() { first = err })
		stop.Store(true)
	}
	work := func(w int) {
		fn := newWorker(w)
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			if err := fn(i); err != nil {
				fail(err)
				return
			}
		}
	}
	if workers == 1 {
		work(0)
		return first
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	return first
}

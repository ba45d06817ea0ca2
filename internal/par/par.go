// Package par provides the tiny worker-pool primitives used to
// parallelize the pipeline at two granularities: task parallelism over
// independent items (per-source PPR pushes, per-block level-1
// factorizations, per-parent tree merges) via ForErr, and data
// parallelism over contiguous index ranges inside the linear-algebra
// kernels via ForChunks. The paper's reference setup uses 64 threads;
// this library mirrors that with a Workers knob threaded through the
// public configs.
package par

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Workers is the single resolver for every Workers knob in the public
// configs (treesvd.Config, core.Config, ppr.Params, rsvd.Options): values
// ≤ 1 mean sequential. It replaces the formerly duplicated per-package
// helpers, so "0 or 1 = sequential" holds uniformly across the codebase.
func Workers(w int) int {
	return max(w, 1)
}

// SplitBudget divides a worker budget across tasks concurrent tasks so
// nested parallelism composes instead of oversubscribing. It is the
// single budget resolver for every fan-out that runs parallel kernels
// inside parallel tasks — per-block factorizations inside a tree pass and
// per-parent merges inside a level sweep.
//
// Contract: with T concurrent tasks each running its kernels at
// SplitBudget(w, T) workers, the total concurrency is at most
// Workers(w) whenever the outer fan-out itself is capped at Workers(w)
// runnable tasks (ForErr guarantees that cap). In particular
// T × SplitBudget(w, T) ≤ max(w, T), and the excess over w is goroutine
// count only, never runnable parallelism, because the outer loop
// schedules at most w tasks at once. SplitBudget(w, 1) ==
// Workers(w): a single task (e.g. the root merge, the serial bottleneck
// of an update pass) gets the whole budget.
func SplitBudget(w, tasks int) int {
	if tasks < 1 {
		tasks = 1
	}
	return max(1, Workers(w)/tasks)
}

// ForErr runs fn(i) for every i in [0,n) across at most w workers, with
// cancellation and first-error propagation: once ctx is done or any call
// returns an error, no further indices are scheduled and the first error
// observed is returned (in-flight calls run to completion first). A panic
// inside fn is recovered and converted into an error, so a failing task
// degrades into an error return instead of killing the process — the
// property that lets the update pipeline promise "no reachable panics".
// A nil ctx disables cancellation. With one worker (or n ≤ 1) it
// degenerates to a plain sequential loop.
func ForErr(ctx context.Context, n, w int, fn func(i int) error) error {
	return ForWorkerErr(ctx, n, w, func(_, i int) error { return fn(i) })
}

// ForWorkerErr is ForErr with the worker index passed to fn, so callers
// can use per-worker scratch state (e.g. one push engine per worker).
// Worker ids are in [0, Workers(w)) and stable within one call.
func ForWorkerErr(ctx context.Context, n, w int, fn func(worker, i int) error) error {
	w = Workers(w)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := protect(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		stop  atomic.Bool
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						fail(err)
						return
					}
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := protect(fn, worker, i); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return first
}

// protect invokes fn(worker, i), converting a panic into an error.
func protect(fn func(worker, i int) error, worker, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: task %d panicked: %v", i, r)
		}
	}()
	return fn(worker, i)
}

// chunksPerWorker oversubscribes ForChunks chunks relative to workers so
// that dynamically scheduled chunks re-balance uneven work (e.g. the
// shrinking triangular panels of a Gram product) without paying a
// goroutine dispatch per index.
const chunksPerWorker = 4

// ForChunks runs fn over a partition of [0,n) into contiguous half-open
// ranges [lo,hi), using at most w workers. It is the row-panel primitive
// of the linear-algebra kernels: contiguous ranges amortize goroutine
// dispatch over many rows and keep each worker streaming adjacent memory.
// Ranges are dispatched dynamically (about chunksPerWorker per worker) so
// uneven per-row work still balances. With w ≤ 1 it degenerates to a
// single fn(0,n) call — no goroutines, no overhead.
//
// The chunk boundaries depend only on n and w, never on scheduling, so a
// caller whose per-range work is deterministic gets a deterministic
// result for any fixed (n, w).
func ForChunks(n, w int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w = Workers(w)
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	chunks := chunksPerWorker * w
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				c := int(atomic.AddInt64(&next, 1)) - 1
				if c >= chunks {
					return
				}
				lo := c * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

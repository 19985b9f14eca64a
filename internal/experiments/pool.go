package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pointProgressKey carries a sweep-progress reporter in a context (see
// WithPointProgress).
type pointProgressKey struct{}

// WithPointProgress returns a context carrying fn. Every sweep that runs
// through parallelFor calls fn as points complete, with the number of
// completed points and the sweep's total — no driver changes required.
// An experiment with several sweep phases (baselines, then points)
// reports each phase's counts in turn. The serving layer installs a
// reporter here to expose points_done/points_total keep-alive progress
// on long-polled jobs. fn must be safe for concurrent calls.
func WithPointProgress(ctx context.Context, fn func(done, total int)) context.Context {
	return context.WithValue(ctx, pointProgressKey{}, fn)
}

// ReportPointProgress invokes ctx's progress reporter, if any. Exported
// so experiments defined outside this package (test stand-ins, custom
// workloads) can feed the same progress channel the built-in sweeps do.
func ReportPointProgress(ctx context.Context, done, total int) {
	if fn, ok := ctx.Value(pointProgressKey{}).(func(done, total int)); ok && fn != nil {
		fn(done, total)
	}
}

// DefaultJobWorkers is the bounded concurrency at which the serving
// layer (internal/server) executes experiment jobs: half the scheduler's
// processors, at least one. Each job's sweep already fans out across
// GOMAXPROCS via parallelFor below, so running every queued job at full
// width would oversubscribe the machine; halving keeps one job's sweep
// and the next job's warm-up overlapped without thrashing.
func DefaultJobWorkers() int {
	w := runtime.GOMAXPROCS(0) / 2
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs fn(i) for every i in [0, n) across up to
// runtime.GOMAXPROCS(0) workers, in ascending order. Every index's work
// must be independent — experiment sweeps are: each point builds its own
// workload and machine — and results must be written to distinct,
// pre-allocated slots so the output order is deterministic regardless of
// scheduling.
//
// On failure the sweep stops promptly: no index above a recorded
// failure is handed out. Indices below it still run, so the returned
// error is always the one with the lowest failing index —
// deterministic, not dependent on completion order.
//
// Cancelling ctx also stops the sweep promptly: no new index is
// dispatched, in-flight points finish (a point's work is not
// interruptible), and ctx.Err() is returned unless an fn error was
// recorded first. fn errors take precedence so that a failure racing a
// Ctrl-C is still reported.
//
// A panic in fn is contained: it becomes that point's error (stack
// included) instead of unwinding a pool goroutine and killing the
// process. This is what lets a long-running caller — the serving
// daemon — survive a buggy experiment: panics on the job's own
// goroutine are recovered there, and panics on sweep workers are
// recovered here.
//
// Each in-flight point holds its own simulated machine and dataset, so
// peak memory scales with the worker count; sweeps at full PARMVR scale
// hold tens of megabytes per worker.
func parallelFor(ctx context.Context, n int, fn func(i int) error) error {
	// Specs of no experiment declare no prefix, so the queue hands the
	// indices out in ascending order.
	return runPool(ctx, n, NewPointQueue(make([]PointSpec, n)), fn)
}

// poolHolder names the local pool in a PointQueue: its workers share
// one PrefixCache, so they are one holder.
const poolHolder = "pool"

// runPool runs fn over the n indices of q, one at a time, on up to
// runtime.GOMAXPROCS(0) workers (one of them the caller's goroutine),
// with parallelFor's failure, cancellation, panic and progress rules.
func runPool(ctx context.Context, n int, q *PointQueue, fn func(i int) error) error {
	var (
		completed atomic.Int64
		mu        sync.Mutex
		firstIdx  = n // sentinel: no error recorded yet
		firstErr  error
	)
	work := func() {
		for ctx.Err() == nil {
			lease := q.Next(poolHolder, 1)
			if lease == nil {
				return
			}
			i := lease[0]
			if err := runPoint(i, fn); err != nil {
				q.Fail(i)
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
			} else {
				q.Done(poolHolder, i)
			}
			ReportPointProgress(ctx, int(completed.Add(1)), n)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runPoint runs one sweep point, converting a panic into the point's
// error so it is reported through the normal first-failing-index path
// rather than crashing the process.
func runPoint(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep point %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

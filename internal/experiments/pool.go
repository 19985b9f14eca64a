package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// pointProgressKey carries a sweep-progress reporter in a context (see
// WithPointProgress).
type pointProgressKey struct{}

// WithPointProgress returns a context carrying fn. Every sweep run
// through RunDecomposed calls fn as points complete, with the number of
// completed points and the sweep's total, one call at a time within a
// sweep and in increasing order, so a sweep's last call reports it
// complete.
// The serving layer installs a reporter here to expose
// points_done/points_total keep-alive progress on long-polled jobs.
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

// queueDrainedKey carries a sweep-drained notifier in a context (see
// WithQueueDrained).
type queueDrainedKey struct{}

// WithQueueDrained returns a context carrying fn. A sweep run through
// RunDecomposed calls fn once its queue has handed out its last point,
// or has stopped handing points out after a failure or cancellation;
// its tail points may still be running. The serving layer starts its
// next job there. fn must be safe for concurrent calls.
func WithQueueDrained(ctx context.Context, fn func()) context.Context {
	return context.WithValue(ctx, queueDrainedKey{}, fn)
}

// holderKey carries a Holder in a context (see WithHolder).
type holderKey struct{}

// Holder is a long-lived owner of local sweeps, such as a server. It
// has one PrefixCache that outlives every sweep run under it, so a
// sweep reuses the prefixes, and the memoized PARMVR calls, of the
// sweeps before it. It also has a budget of lanes that the pools of all
// its sweeps draw on, one lane per running point, so sweeps that
// overlap still run at most that many points at once.
type Holder struct {
	prefixes *PrefixCache
	lanes    chan struct{}
}

// NewHolder returns a holder over prefixes with a budget of lanes
// points (at least one).
func NewHolder(prefixes *PrefixCache, lanes int) *Holder {
	return &Holder{prefixes: prefixes, lanes: make(chan struct{}, max(lanes, 1))}
}

// WithHolder returns a context whose sweeps run under h.
func WithHolder(ctx context.Context, h *Holder) context.Context {
	return context.WithValue(ctx, holderKey{}, h)
}

// holderOf returns ctx's holder, or nil.
func holderOf(ctx context.Context) *Holder {
	h, _ := ctx.Value(holderKey{}).(*Holder)
	return h
}

// acquire takes one lane, or returns false when ctx ends first. A nil
// holder has no budget.
func (h *Holder) acquire(ctx context.Context) bool {
	if h == nil {
		return true
	}
	select {
	case h.lanes <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// release returns a lane taken by acquire.
func (h *Holder) release() {
	if h != nil {
		<-h.lanes
	}
}

// DefaultJobWorkers is the number of job workers the serving layer
// (internal/server) runs: half the scheduler's processors, at least
// one. A job's sweep already fans out across GOMAXPROCS lanes, and a
// worker starts its next job as soon as the running job's queue has
// handed out its last point, so one worker keeps the lanes busy through
// a job's tail and merge. The server's Holder caps local points at
// GOMAXPROCS however many jobs overlap.
func DefaultJobWorkers() int {
	w := runtime.GOMAXPROCS(0) / 2
	if w < 1 {
		w = 1
	}
	return w
}

// poolHolder names the local pool in a PointQueue: its workers share
// one PrefixCache, so they are one holder.
const poolHolder = "pool"

// runPool runs fn over the n indices of q, one at a time, on up to
// runtime.GOMAXPROCS(0) workers (one of them the caller's goroutine).
// Every index's work must be independent — each point builds its own
// workload and machine — and write a distinct, pre-allocated slot, so
// the output does not depend on scheduling. Under a Holder (WithHolder)
// each point first takes one of its lanes. Pools must not nest under a
// holder: a point holding a lane would wait on its inner pool's lanes.
//
// On failure the sweep stops promptly: q hands out no index above a
// recorded failure. Indices below it still run, so the returned error
// is always the one with the lowest failing index — deterministic, not
// dependent on completion order.
//
// Cancelling ctx also stops the sweep promptly: no new index is
// dispatched, in-flight points finish (a point's work is not
// interruptible), and ctx.Err() is returned unless an fn error was
// recorded first, so a failure racing a Ctrl-C is still reported.
//
// A panic in fn is contained: it becomes that point's error (stack
// included) instead of unwinding a pool goroutine and killing the
// process, so a long-running caller — the serving daemon — survives a
// buggy experiment.
//
// Each in-flight point holds its own simulated machine and dataset, so
// peak memory scales with the worker count; sweeps at full PARMVR scale
// hold tens of megabytes per worker.
func runPool(ctx context.Context, n int, q *PointQueue, fn func(i int) error) error {
	var (
		mu        sync.Mutex
		firstIdx  = n // sentinel: no error recorded yet
		firstErr  error
		drained   sync.Once
		progress  sync.Mutex // orders the progress reports
		completed int
	)
	h := holderOf(ctx)
	notifyDrained := func() {
		drained.Do(func() {
			if fn, ok := ctx.Value(queueDrainedKey{}).(func()); ok && fn != nil {
				fn()
			}
		})
	}
	work := func() {
		for ctx.Err() == nil {
			if !h.acquire(ctx) {
				return
			}
			i, ok := q.Next(poolHolder)
			if !ok {
				h.release()
				notifyDrained()
				return
			}
			if q.Unclaimed() == 0 {
				notifyDrained()
			}
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
			h.release()
			progress.Lock()
			completed++
			ReportPointProgress(ctx, completed, n)
			progress.Unlock()
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

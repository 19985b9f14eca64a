package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// Submit accepts one experiment job; JobCore.Submit resolves, keys and
// records it. The result is one of:
//
//   - cache hit: the job completes immediately with the stored bytes —
//     no simulation runs, no queue slot is consumed;
//   - coalesced: an identical job (same key) is already queued or
//     running, so this job attaches to it and completes when it does —
//     concurrent duplicate submissions share one simulation;
//   - queued: the job takes a queue slot and a worker will run it;
//   - refused: the queue is full (ErrQueueFull; the job is failed).
func (s *Server) Submit(experiment string, p JobParams) (JobView, error) {
	return s.JobCore.Submit("", experiment, p)
}

// startJob is the server's Daemon.Start, called with the core's mutex
// held for an accepted job the cache could not answer: if an identical
// job (same key) is already queued or running, this one attaches to it
// and completes when it does — concurrent duplicate submissions share
// one simulation; otherwise the job takes a queue slot and a worker will
// run it, or it is refused with ErrQueueFull.
func (s *Server) startJob(j *Job) error {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if leader, ok := s.inflight[j.Key]; ok {
		j.coalesced = true
		s.metrics.Inc(mJobsCoalesced)
		s.wg.Add(1)
		go s.follow(j, leader)
		return nil
	}
	select {
	case s.queue <- j:
		s.inflight[j.Key] = j
		depth := int64(len(s.queue))
		s.metrics.Set(mQueueDepth, depth)
		s.metrics.Max(mQueuePeak, depth)
		return nil
	default:
		s.metrics.Inc(mJobsRejected)
		return ErrQueueFull
	}
}

// retire drops a leader from the single-flight table once its result is
// stored, so later submissions hit the cache instead of attaching.
func (s *Server) retire(j *Job) {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
}

// follow completes a coalesced follower when its leader finishes: the
// follower adopts the leader's result or error. The leader always closes
// done — success, failure, or shutdown cancellation — so followers never
// leak.
func (s *Server) follow(j, leader *Job) {
	defer s.wg.Done()
	<-leader.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if leader.state == StateDone {
		s.finishLocked(j, leader.result, nil, nil)
	} else {
		// Re-wrap so the follower inherits the leader's typed code, not
		// just its message.
		s.finishLocked(j, nil, &codedError{code: leader.errCode, err: errors.New(leader.errMsg)}, nil)
	}
}

// worker drains the job queue until it is closed and empty. Each job
// runs on a goroutine of its own, and the worker takes the next job as
// soon as the running job's sweep has handed out its last point (the
// overlap rule): the next job's points then fill the lanes that the
// tail, merge, render and cache write would leave idle, and the
// holder's lane budget keeps local points at or below GOMAXPROCS. At
// most two jobs are in flight per worker: before taking a third, the
// worker waits for the older one to finish. A job that fails before its
// sweep hands out a point finishes before its worker moves on.
func (s *Server) worker() {
	defer s.wg.Done()
	var tail *Job // the previous job, perhaps still in its tail
	for j := range s.queue {
		s.metrics.Set(mQueueDepth, int64(len(s.queue)))
		drained := make(chan struct{})
		var once sync.Once
		s.wg.Add(1)
		go s.runJob(j, func() { once.Do(func() { close(drained) }) })
		select {
		case <-drained:
		case <-j.done:
		}
		if tail != nil {
			<-tail.done
		}
		tail = j
	}
}

// runJob executes one leader job on its own goroutine: run the
// experiment under the server's run context and holder (bounded by the
// job's deadline), render the result to JSON, store it in the cache,
// and finish the job (waking any followers). drained is called once the
// job's sweep has handed out its last point. Every failure mode is
// absorbed here:
//
//   - a panic anywhere in execution fails only this job, with the stack
//     in its error (jobs.panics);
//   - the per-job deadline cancels the experiment's context so a stuck
//     sweep cannot pin the worker forever (jobs.timeouts);
//   - a cache write failure degrades: the computed result is served and
//     the job succeeds (cache.write_errors counts the loss);
//   - a panic that escapes all of that (a bookkeeping bug) still moves
//     the job to a terminal state (workers.restarts).
func (s *Server) runJob(j *Job, drained func()) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc(mWorkerRestarts)
			s.retire(j)
			s.Finish(j, nil, fmt.Errorf("worker panicked: %v", r), nil)
		}
	}()
	started := s.MarkRunning(j)
	s.metrics.Add(mTimeQueued, started.Sub(j.created).Nanoseconds())
	s.metrics.Inc(mJobsExecuted)

	ctx := experiments.WithPointProgress(s.runCtx, j.SetProgress)
	ctx = experiments.WithQueueDrained(experiments.WithHolder(ctx, s.holder), drained)
	timeout := time.Duration(j.Params.TimeoutMS) * time.Millisecond
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The experiment's Run decomposes it, runs its points on the holder
	// and merges them. The pool contains a panic in a point; guard one
	// in a merge.
	var val []byte
	err := guard(ctx, s.faults, "experiment", s.countPanic, func() error {
		r, err := s.exps[j.Experiment].Run(ctx, j.Params.RunConfig())
		if err == nil {
			val, err = RenderJSON(r)
		}
		return err
	})
	s.publishPrefixStats()
	if err != nil && errors.Is(err, context.DeadlineExceeded) && s.runCtx.Err() == nil {
		s.metrics.Inc(mJobsTimeouts)
		err = fmt.Errorf("job exceeded its %v deadline: %w", timeout, err)
	}
	if err == nil {
		// Degrade, don't fail, when the write is lost: the result exists
		// and followers are waiting on it; only the disk copy is missing
		// (cache.write_errors and Healthy() record the loss).
		_ = s.storeResult(ctx, j.Key, val)
	}
	s.retire(j)
	s.Finish(j, val, err, nil)
	s.metrics.Add(mTimeRun, time.Since(started).Nanoseconds())
}

// guard runs one unit of work — a job, a shipped point, or the replay of
// either — behind the injected fault sites: SiteExpPanic panics, and
// SiteExpStall waits for ctx, before run. A panic becomes a CodePanic
// error with the stack, first line "<unit> panicked: <value>"
// (ReproBundle.SameFailure compares it), after a call to panicked, if
// not nil.
func guard(ctx context.Context, inj *faults.Injector, unit string, panicked func(), run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if panicked != nil {
				panicked()
			}
			err = &codedError{code: CodePanic, err: fmt.Errorf("%s panicked: %v\n%s", unit, r, debug.Stack())}
		}
	}()
	if inj.Check(SiteExpPanic) {
		panic(fmt.Sprintf("injected panic (site %s)", SiteExpPanic))
	}
	if inj.Check(SiteExpStall) {
		<-ctx.Done()
		return ctx.Err()
	}
	return run()
}

// countPanic counts one contained panic (jobs.panics).
func (s *Server) countPanic() { s.metrics.Inc(mJobsPanics) }

// Cache-write retry policy: transient disk failures (ENOSPC races,
// network filesystems) get a few bounded, jittered, context-aware
// retries before the server degrades to serving the result memory-only.
const (
	putAttempts    = 3
	putBackoffBase = 5 * time.Millisecond
)

// storeResult writes a finished job's bytes to the cache, retrying
// transient failures with exponential backoff and jitter. It stops
// early when ctx is done (shutdown or the job deadline: the result is
// already computed, so the caller still serves it). The error return is
// advisory — every attempt already counted in cache.write_errors, and
// callers degrade rather than fail.
func (s *Server) storeResult(ctx context.Context, key string, val []byte) error {
	backoff := putBackoffBase
	var err error
	for attempt := 1; ; attempt++ {
		err = s.cache.Put(key, val)
		if err == nil || attempt == putAttempts {
			return err
		}
		s.metrics.Inc(mCacheWriteRetries)
		jitter := time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(backoff + jitter):
		case <-ctx.Done():
			return err
		}
		backoff *= 2
	}
}

// RenderJSON renders an experiment result exactly as cascade-sim's -json
// mode does (indented, trailing newline), so CLI sweeps and the server
// produce — and therefore share — byte-identical cache entries.
func RenderJSON(r experiments.Renderable) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

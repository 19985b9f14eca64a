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
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrUnknownExperiment is returned for a name the registry lacks.
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrQueueFull is returned when the bounded job queue is at capacity.
	ErrQueueFull = errors.New("job queue full")
	// ErrShuttingDown is returned for submissions after Shutdown began.
	ErrShuttingDown = errors.New("server shutting down")
)

// Submit accepts one experiment job. Zero-valued parameters are resolved
// to the registry defaults before anything else, so the content-addressed
// key always reflects fully-resolved parameters. The result is one of:
//
//   - cache hit: the job completes immediately with the stored bytes —
//     no simulation runs, no queue slot is consumed;
//   - coalesced: an identical job (same key) is already queued or
//     running, so this job attaches to it and completes when it does —
//     concurrent duplicate submissions share one simulation;
//   - queued: the job takes a queue slot and a worker will run it.
//
// The returned view reflects the job's state at return; poll Job (or
// await it) for completion.
func (s *Server) Submit(experiment string, p JobParams) (JobView, error) {
	e, ok := s.exps[experiment]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, experiment)
	}
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return JobView{}, err
	}
	jobKey, err := JobKey(experiment, p)
	if err != nil {
		return JobView{}, err
	}
	key := RenderKey(jobKey, "json")
	if p.TimeoutMS == 0 {
		p.TimeoutMS = int(s.jobTimeout / time.Millisecond)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.metrics.Inc(mJobsRejected)
		return JobView{}, ErrShuttingDown
	}
	// Counted only once a submission is accepted (a job record exists),
	// so jobs.submitted = jobs.completed + jobs.failed + queued + running
	// holds at every instant (checkConservationLocked); shutdown
	// rejections count only in jobs.rejected.
	s.metrics.Inc(mJobsSubmitted)
	j := &job{
		id:         fmt.Sprintf("j%d", s.nextID),
		experiment: e.Name,
		params:     p,
		key:        key,
		created:    time.Now(),
		done:       make(chan struct{}),
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.setStateLocked(j, StateQueued)

	if leader, ok := s.inflight[key]; ok {
		j.coalesced = true
		s.metrics.Inc(mJobsCoalesced)
		s.wg.Add(1)
		go s.follow(j, leader)
		return j.view(true), nil
	}
	if val, ok := s.cache.Get(key); ok {
		j.cached = true
		s.finishLocked(j, val, nil)
		s.metrics.Inc(mJobsCacheHits)
		return j.view(true), nil
	}
	select {
	case s.queue <- j:
		s.inflight[key] = j
		depth := int64(len(s.queue))
		s.metrics.Set(mQueueDepth, depth)
		s.metrics.Max(mQueuePeak, depth)
	default:
		s.finishLocked(j, nil, ErrQueueFull)
		s.metrics.Inc(mJobsRejected)
		return j.view(true), ErrQueueFull
	}
	return j.view(true), nil
}

// Job returns the view of a submitted job (false when the id is unknown).
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(true), true
}

// Jobs returns every job in submission order, without result payloads.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, len(s.order))
	for i, j := range s.order {
		out[i] = j.view(false)
	}
	return out
}

// Await blocks until the job finishes, the timeout elapses (0 = return
// immediately), or cancel is closed/ready; it then returns the current
// view.
func (s *Server) Await(id string, timeout time.Duration, cancel <-chan struct{}) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-cancel:
		}
	}
	return s.Job(id)
}

// follow completes a coalesced follower when its leader finishes: the
// follower adopts the leader's result or error. The leader always closes
// done — success, failure, or shutdown cancellation — so followers never
// leak.
func (s *Server) follow(j, leader *job) {
	defer s.wg.Done()
	<-leader.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if leader.state == StateDone {
		s.finishLocked(j, leader.result, nil)
	} else {
		// Re-wrap so the follower inherits the leader's typed code, not
		// just its message.
		s.finishLocked(j, nil, &codedError{code: leader.errCode, err: errors.New(leader.errMsg)})
	}
}

// worker drains the job queue until it is closed and empty. Each job
// runs on a goroutine of its own, and the worker takes the next job as
// soon as the running job's sweep has handed out its last point (the
// overlap rule): the next job's points then fill the lanes that the
// tail, merge, render and cache write would leave idle, and the
// holder's lane budget keeps local points at or below GOMAXPROCS. At
// most two jobs are in flight per worker: before taking a third, the
// worker waits for the older one to finish. A job that runs no sweep
// finishes before its worker moves on.
func (s *Server) worker() {
	defer s.wg.Done()
	var tail *job // the previous job, perhaps still in its tail
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
func (s *Server) runJob(j *job, drained func()) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc(mWorkerRestarts)
			s.mu.Lock()
			if s.inflight[j.key] == j {
				delete(s.inflight, j.key)
			}
			if j.state == StateQueued || j.state == StateRunning {
				s.finishLocked(j, nil, fmt.Errorf("worker panicked: %v", r))
			}
			s.mu.Unlock()
		}
	}()
	s.mu.Lock()
	j.started = time.Now()
	s.setStateLocked(j, StateRunning)
	s.mu.Unlock()
	s.metrics.Add(mTimeQueued, j.started.Sub(j.created).Nanoseconds())
	s.metrics.Inc(mJobsExecuted)

	ctx := experiments.WithPointProgress(s.runCtx, func(done, total int) {
		j.pointsDone.Store(int64(done))
		j.pointsTotal.Store(int64(total))
	})
	ctx = experiments.WithQueueDrained(experiments.WithHolder(ctx, s.holder), drained)
	timeout := time.Duration(j.params.TimeoutMS) * time.Millisecond
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	val, err := s.execute(ctx, j)
	s.publishPrefixStats()
	if err != nil && errors.Is(err, context.DeadlineExceeded) && s.runCtx.Err() == nil {
		s.metrics.Inc(mJobsTimeouts)
		err = fmt.Errorf("job exceeded its %v deadline: %w", timeout, err)
	}
	if err == nil {
		// Degrade, don't fail, when the write is lost: the result exists
		// and followers are waiting on it; only the disk copy is missing
		// (cache.write_errors and Healthy() record the loss).
		_ = s.storeResult(ctx, j.key, val)
	}

	s.mu.Lock()
	delete(s.inflight, j.key)
	s.finishLocked(j, val, err)
	s.mu.Unlock()
	s.metrics.Add(mTimeRun, j.finished.Sub(j.started).Nanoseconds())
}

// execute runs a job's experiment and renders the result, converting a
// panic — an experiment bug, or the injected SiteExpPanic — into an
// error carrying the stack. Panics on sweep-worker goroutines inside
// parallelFor are converted to point errors by the experiments package,
// so this recover plus that one cover both panic surfaces.
func (s *Server) execute(ctx context.Context, j *job) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc(mJobsPanics)
			err = &codedError{code: CodePanic, err: fmt.Errorf("experiment panicked: %v\n%s", r, debug.Stack())}
		}
	}()
	if s.faults.Check(SiteExpPanic) {
		panic(fmt.Sprintf("injected panic (site %s)", SiteExpPanic))
	}
	if s.faults.Check(SiteExpStall) {
		<-ctx.Done() // a sweep that never dispatches another point
		return nil, ctx.Err()
	}
	e := s.exps[j.experiment]
	r, err := e.Run(ctx, j.params.RunConfig())
	if err != nil {
		return nil, err
	}
	return RenderJSON(r)
}

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

// finishLocked moves a job to its terminal state and wakes waiters.
// Callers must hold the server mutex.
func (s *Server) finishLocked(j *job, val []byte, err error) {
	j.finished = time.Now()
	if err != nil {
		j.errMsg = err.Error()
		j.errCode = errorCode(err)
		s.metrics.Inc(mJobsFailed)
		s.setStateLocked(j, StateFailed)
	} else {
		j.result = val
		s.metrics.Inc(mJobsCompleted)
		s.setStateLocked(j, StateDone)
	}
	close(j.done)
}

// setStateLocked moves j to state to, keeping the per-state job counts,
// and checks the conservation identity. A terminal move is counted in
// jobs.completed or jobs.failed first. Callers hold the server mutex.
func (s *Server) setStateLocked(j *job, to State) {
	if j.state != "" {
		s.jobStates[j.state]--
	}
	j.state = to
	s.jobStates[to]++
	s.checkConservationLocked()
}

// checkConservationLocked checks jobs.submitted = jobs.completed +
// jobs.failed + queued + running, the identity every transition keeps.
// The first violation marks the server unconserved, which /healthz
// reports as degraded, and logs the counters. Callers hold the server
// mutex.
func (s *Server) checkConservationLocked() {
	submitted := s.metrics.Value(mJobsSubmitted)
	completed, failed := s.metrics.Value(mJobsCompleted), s.metrics.Value(mJobsFailed)
	queued, running := s.jobStates[StateQueued], s.jobStates[StateRunning]
	if submitted == completed+failed+int64(queued+running) || s.unconserved.Load() {
		return
	}
	s.unconserved.Store(true)
	s.logf("server: job conservation violated: jobs.submitted=%d jobs.completed=%d jobs.failed=%d queued=%d running=%d",
		submitted, completed, failed, queued, running)
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

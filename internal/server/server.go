// Package server is the experiment-serving daemon: a long-running HTTP
// JSON service that accepts experiment jobs against the
// experiments.Registry, runs them on a bounded worker pool, memoizes
// results in a content-addressed cache, and exposes live metrics.
//
// API (every response is a versioned Envelope — see envelope.go):
//
//	GET  /v1/experiments        registry metadata (names, descriptions, defaults)
//	POST /v1/jobs               submit {"experiment": "...", "params": {...}}
//	GET  /v1/jobs               list submitted jobs (no result payloads)
//	GET  /v1/jobs/{id}          one job, result included; ?wait=5s blocks
//	                            ("Accept: application/x-ndjson" streams
//	                            keep-alive progress frames while waiting)
//	GET  /v1/jobs/{id}/repro    a failed job's repro bundle
//	POST /v1/points             run decomposed sweep points (fabric workers)
//	GET  /metrics               flat "name value" metric exposition
//	GET  /healthz               liveness: ok, degraded or draining
//
// Everything but /v1/points is the job core (job.go, jobhttp.go), which
// a fabric coordinator runs too; the server supplies how an accepted
// job runs (queue.go).
//
// Identical work never runs twice: a submitted job is first looked up in
// the cache by the canonical hash of its fully-resolved configuration
// (see key.go), and a miss that matches an already-queued or running job
// coalesces with it single-flight style. Shutdown is graceful — the
// queue drains, results flush to the cache — with a deadline after which
// in-flight sweeps are cancelled through the experiment layer's context
// plumbing.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// DefaultJobTimeout is the per-job execution deadline applied when
// neither Config.JobTimeout nor the job's params set one. Generous —
// paper-scale sweeps take minutes — but finite, so a stuck sweep can
// never pin a worker forever.
const DefaultJobTimeout = 15 * time.Minute

// Config configures a Server. The zero value serves the full experiment
// registry from a memory-only cache with experiments.DefaultJobWorkers
// workers.
type Config struct {
	// Workers is how many job workers take jobs off the queue; a worker
	// starts its next job once the running job's sweep has handed out
	// its last point, so up to two jobs per worker are in flight. Each
	// job's sweep parallelizes internally on the server's lanes
	// (GOMAXPROCS of them, shared by every local job). Workers is also
	// the number of shipped points run at once (PointSlots). Default:
	// experiments.DefaultJobWorkers().
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// submissions beyond it are rejected with ErrQueueFull. Default: 64.
	QueueDepth int
	// CacheDir persists the result cache under this directory; empty
	// keeps it in memory only.
	CacheDir string
	// Experiments overrides the served experiment set (tests inject
	// synthetic experiments here). Default: experiments.Registry().
	Experiments []experiments.Experiment
	// Metrics receives the server's counters and gauges. Default: a
	// fresh registry.
	Metrics *metrics.Synced
	// JobTimeout is the execution deadline applied to jobs whose params
	// leave TimeoutMS zero. 0 means DefaultJobTimeout; negative
	// disables the server default (jobs may still set their own).
	JobTimeout time.Duration
	// Faults wires a fault injector through the serving pipeline's
	// injection sites (see FaultSites). Nil — the default — disables
	// injection at no cost. Tests and the cascade-server -faults dev
	// flag are the only intended users.
	Faults *faults.Injector
	// FaultSpec and FaultSeed record what Faults was parsed from, so
	// repro bundles (repro.go) can carry the exact injection
	// configuration as a replayable input. Informational: they arm
	// nothing themselves.
	FaultSpec string
	FaultSeed int64
	// ProgressInterval is the keep-alive cadence of streaming ?wait
	// responses (see jobhttp.go). Default: DefaultProgressInterval.
	ProgressInterval time.Duration
	// QuarantineTTL ages out stale .corrupt quarantine files from the
	// disk cache at startup (cache.quarantine_purged counts removals).
	// 0 means DefaultQuarantineTTL; negative disables the sweep.
	QuarantineTTL time.Duration
	// WarmPrefixes enables worker-side prefix reuse for shipped points: a
	// point whose decomposition declares a shared prefix executes off the
	// built prefix state from the server's prefix cache (packed machine
	// captures: one for a warm prefix, one per loop for a cold call)
	// instead of rebuilding the sweep prefix. Byte-identical results either way (the experiments
	// layer pins the RunWarm contract) — purely a wall-clock
	// optimization for prefix-heavy sweeps. Local jobs always run off
	// the cache.
	WarmPrefixes bool
	// PrefixCacheBytes bounds the server's prefix cache (prefix states
	// and their memoized PARMVR calls) by estimated retained bytes; 0
	// uses experiments.DefaultPrefixCacheBytes.
	PrefixCacheBytes int64
}

// Server is the serving daemon. Create with New, expose Handler over
// HTTP, stop with Shutdown. The embedded job core holds its jobs.
type Server struct {
	*JobCore

	metrics      *metrics.Synced
	cache        *Cache
	exps         map[string]experiments.Experiment
	jobTimeout   time.Duration
	faults       *faults.Injector
	warmPrefixes bool
	// The server's one local holder: a prefix cache that lives as long
	// as the process, serving every local job (and shipped points under
	// WarmPrefixes), and the lane budget every local job's pool draws on.
	prefixCache *experiments.PrefixCache
	holder      *experiments.Holder

	runCtx    context.Context
	cancelRun context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup // workers + follower waiters

	// Point-execution admission (POST /v1/points; see point.go): at most
	// cap(pointSem) points run concurrently, at most pointAdmitMax are
	// admitted (running + waiting) before the endpoint sheds load.
	pointSem      chan struct{}
	pointAdmitted atomic.Int64
	pointAdmitMax int

	inflightMu sync.Mutex
	inflight   map[string]*Job // cache key → queued/running leader
}

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = experiments.DefaultJobWorkers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Experiments == nil {
		cfg.Experiments = experiments.Registry()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewSynced()
	}
	switch {
	case cfg.JobTimeout == 0:
		cfg.JobTimeout = DefaultJobTimeout
	case cfg.JobTimeout < 0:
		cfg.JobTimeout = 0 // no server default
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = DefaultProgressInterval
	}
	initMetrics(cfg.Metrics)
	cache, err := NewCache(cfg.CacheDir, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	cache.WithFaults(cfg.Faults)
	if cfg.QuarantineTTL == 0 {
		cfg.QuarantineTTL = DefaultQuarantineTTL
	}
	if cfg.QuarantineTTL > 0 {
		cache.PurgeQuarantine(cfg.QuarantineTTL)
	}
	s := &Server{
		metrics:       cfg.Metrics,
		cache:         cache,
		exps:          make(map[string]experiments.Experiment, len(cfg.Experiments)),
		jobTimeout:    cfg.JobTimeout,
		faults:        cfg.Faults,
		queue:         make(chan *Job, cfg.QueueDepth),
		pointSem:      make(chan struct{}, cfg.Workers),
		pointAdmitMax: cfg.Workers + cfg.QueueDepth,
		inflight:      make(map[string]*Job),
		warmPrefixes:  cfg.WarmPrefixes,
		prefixCache:   experiments.NewPrefixCache(cfg.PrefixCacheBytes),
	}
	s.JobCore, err = NewJobCore(Daemon{
		IDPrefix:    "j",
		Experiments: cfg.Experiments,
		Cache:       cache,
		Metrics:     cfg.Metrics,
		Names: JobMetrics{Submitted: mJobsSubmitted, Completed: mJobsCompleted, Failed: mJobsFailed,
			CacheHits: mJobsCacheHits, Rejected: mJobsRejected},
		JobTimeout:       cfg.JobTimeout,
		ProgressInterval: cfg.ProgressInterval,
		Faults:           cfg.Faults,
		FaultSpec:        cfg.FaultSpec,
		FaultSeed:        cfg.FaultSeed,
		FaultSites:       FaultSites(),
		Start:            s.startJob,
		QueueDepth:       s.QueueDepth,
		Routes:           map[string]http.HandlerFunc{"POST /v1/points": s.handlePoint},
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for _, e := range cfg.Experiments {
		s.exps[e.Name] = e
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	s.holder = experiments.NewHolder(s.prefixCache, runtime.GOMAXPROCS(0))
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Shutdown stops the server gracefully: new submissions are rejected,
// the queue drains (queued and running jobs finish and their results
// flush to the cache), and the worker pool exits. If ctx expires before
// the drain completes, the run context is cancelled — the experiment
// layer stops dispatching new simulation points, in-flight points
// finish, and the affected jobs fail with the cancellation error — and
// Shutdown returns ctx's error after the pool exits. A nil return means
// every accepted job ran to completion.
func (s *Server) Shutdown(ctx context.Context) error {
	// Submissions send on the queue with the core's mutex held, so once
	// they are closed nothing sends again.
	if s.CloseSubmissions() {
		close(s.queue)
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.cancelRun()
		<-drained
		err = ctx.Err()
	}
	s.cancelRun()
	return err
}

// PointSlots returns how many points the server executes at once (its
// Workers bound) — the capacity a fleet worker advertises as slots.
func (s *Server) PointSlots() int {
	return cap(s.pointSem)
}

// QueueDepth returns how many accepted jobs are waiting for a worker.
func (s *Server) QueueDepth() int {
	return len(s.queue)
}

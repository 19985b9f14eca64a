package server

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Metric names the serving layer maintains in its Synced registry. They
// are pre-registered at server construction so GET /metrics always
// exposes the full, stable set (zeros included) — the same
// stable-snapshot-shape convention internal/metrics imposes on
// simulation Sources.
const (
	// Counters.
	mJobsSubmitted = "jobs.submitted"  // POST /v1/jobs accepted
	mJobsExecuted  = "jobs.executed"   // jobs that actually ran a simulation
	mJobsCompleted = "jobs.completed"  // jobs finished in StateDone
	mJobsFailed    = "jobs.failed"     // jobs finished in StateFailed
	mJobsCoalesced = "jobs.coalesced"  // jobs attached to an identical in-flight run
	mJobsCacheHits = "jobs.cache_hits" // jobs answered from the cache at submit
	mJobsRejected  = "jobs.rejected"   // jobs refused (queue full or shutting down)
	mJobsPanics    = "jobs.panics"     // jobs failed by a recovered experiment panic
	mJobsTimeouts  = "jobs.timeouts"   // jobs failed by their per-job deadline

	// Point-execution counters (POST /v1/points — the fabric worker
	// surface; see point.go).
	mPointsExecuted    = "points.executed"     // points that ran a simulation here
	mPointsCacheHits   = "points.cache_hits"   // points answered from the local cache
	mPointsRejected    = "points.rejected"     // points refused (saturated or draining)
	mPointsFailed      = "points.failed"       // point executions that returned an error
	mPointsKeyMismatch = "points.key_mismatch" // requests whose key != locally-derived key
	mPointsWarm        = "points.warm"         // points executed through the warm-prefix path

	// Prefix-cache gauges (mirrors of experiments.PrefixCacheStats, for
	// local jobs and shipped points).
	mPrefixHits       = "prefix.hits"
	mPrefixMisses     = "prefix.misses"
	mPrefixCallHits   = "prefix.calls.hits"   // PARMVR calls served from a prefix's memo
	mPrefixCallMisses = "prefix.calls.misses" // PARMVR calls simulated and memoized
	mPrefixEvictions  = "prefix.evictions"
	mPrefixEntries    = "prefix.entries"
	mPrefixBytes      = "prefix.bytes"

	// Failure-model counters (see DESIGN.md §10).
	mWorkerRestarts    = "workers.restarts"    // panics that escaped a job's own containment (the job still fails)
	mCacheWriteRetries = "cache.write_retries" // cache.Put attempts retried after a transient failure

	// Per-phase job timers (wall time, nanoseconds).
	mTimeQueued = "jobs.time.queued_ns" // submit → worker pickup
	mTimeRun    = "jobs.time.run_ns"    // worker pickup → result stored

	// Gauges.
	mQueueDepth = "queue.depth"      // jobs currently waiting in the queue
	mQueuePeak  = "queue.depth_peak" // high-water mark of queue.depth

	// Cache counters (cache.hits / cache.misses / cache.disk_hits /
	// cache.entries / cache.bytes / cache.read_errors /
	// cache.write_errors / cache.corrupt) are maintained by Cache itself.
)

// initMetrics pre-registers every server metric at zero.
func initMetrics(m *metrics.Synced) {
	for _, name := range []string{
		mJobsSubmitted, mJobsExecuted, mJobsCompleted, mJobsFailed,
		mJobsCoalesced, mJobsCacheHits, mJobsRejected,
		mJobsPanics, mJobsTimeouts, mWorkerRestarts, mCacheWriteRetries,
		mPointsExecuted, mPointsCacheHits, mPointsRejected,
		mPointsFailed, mPointsKeyMismatch, mPointsWarm,
		mTimeQueued, mTimeRun,
		"cache.hits", "cache.misses", "cache.disk_hits",
		"cache.entries", "cache.bytes",
		"cache.read_errors", "cache.write_errors", "cache.corrupt",
		"cache.quarantine_purged",
	} {
		m.Add(name, 0)
	}
	m.Set(mQueueDepth, 0)
	m.Set(mQueuePeak, 0)
	for _, name := range []string{mPrefixHits, mPrefixMisses, mPrefixCallHits, mPrefixCallMisses,
		mPrefixEvictions, mPrefixEntries, mPrefixBytes} {
		m.Set(name, 0)
	}
}

// writeMetrics renders a snapshot in the flat text exposition format of
// GET /metrics: one "name value" line per metric, sorted by name.
func writeMetrics(w io.Writer, snap metrics.Snapshot) {
	for _, name := range snap.Names() {
		fmt.Fprintf(w, "%s %d\n", name, snap.Get(name))
	}
}

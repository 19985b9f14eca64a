package fabric

import "repro/internal/metrics"

// Fleet metric names, all under the fabric. prefix so a scrape of the
// coordinator's /metrics separates fleet behaviour from any colocated
// server's job counters.
//
// Two conservation identities are checked at runtime, on every
// transition, through the job core's latch (a violation turns /healthz
// degraded):
//
//	fabric.jobs.submitted + fabric.jobs.recovered
//	  = fabric.jobs.completed + fabric.jobs.failed + queued + running
//
//	fabric.points.assigned = fabric.points.completed
//	                       + fabric.points.retried
//	                       + fabric.points.failed
//	                       + leases in flight
//
// Every assignment is a lease that ends in exactly one of completed,
// retried, or failed, so at quiescence assigned = completed + retried +
// failed. The chaos tests assert this after killing a worker mid-sweep:
// a lease that died with its worker must surface in
// fabric.points.retried, never vanish.
const (
	// Job counters.
	mJobsSubmitted     = "fabric.jobs.submitted"      // jobs accepted (a record exists)
	mJobsCompleted     = "fabric.jobs.completed"      // jobs finished done
	mJobsFailed        = "fabric.jobs.failed"         // jobs finished failed
	mJobsCacheHits     = "fabric.jobs.cache_hits"     // jobs answered from the merged-result cache
	mJobsQuotaRejected = "fabric.jobs.quota_rejected" // submissions refused by tenant quota
	mJobsRejected      = "fabric.jobs.rejected"       // submissions refused (shutdown)

	// Point counters (see the point identity above): one assignment
	// per dispatch attempt, each retired through exactly one of the
	// three outcomes.
	mPointsAssigned  = "fabric.points.assigned"  // point dispatches started (one per attempt)
	mPointsCompleted = "fabric.points.completed" // dispatches that returned a result
	mPointsRetried   = "fabric.points.retried"   // dispatches lost to a dead/saturated worker and reassigned
	mPointsFailed    = "fabric.points.failed"    // dispatches that failed terminally (experiment error)

	// Lease dispatch (see runSharded). A lease is one point shipped in
	// one RPC; the RPC counter keeps the name it had when a lease could
	// carry several points, so assigned / dispatched reads 1. Slots are
	// the points the live fleet can run at once, as its workers
	// advertise them; busy ones carry a lease in flight, so busy never
	// exceeds total and a sweep that keeps busy below total is short of
	// work, not of workers.
	mDispatched = "fabric.batches.dispatched" // point RPCs sent (one per assignment)
	mSlotsTotal = "fabric.slots.total"        // gauge: slots advertised by live workers
	mSlotsBusy  = "fabric.slots.busy"         // gauge: live workers' slots holding a lease

	// Cross-node cache counters — the observable proof that the fleet
	// shares results instead of recomputing them.
	mCacheHits       = "fabric.cache.hits"        // points answered from the coordinator's own index
	mCacheRemoteHits = "fabric.cache.remote_hits" // points a worker answered from its cache ("cached": true)

	// Worker-fleet counters and gauges.
	mWorkersRegistered = "fabric.workers.registered" // registration requests (incl. heartbeats)
	mWorkersDeaths     = "fabric.workers.deaths"     // workers declared dead by heartbeat timeout
	mWorkersAlive      = "fabric.workers.alive"      // gauge: workers currently serving

	// Durability counters and gauges (journal + crash recovery; see
	// DESIGN.md §13). Recovery events do not feed the live point
	// counters above — the point identity is a property of one
	// incarnation's leases — but a re-adopted job counts in
	// fabric.jobs.recovered, its side of the job identity.
	mJournalRecords     = "fabric.journal.records"      // records durably appended this incarnation
	mJournalReplayed    = "fabric.journal.replayed"     // records replayed from the log at startup
	mJournalTruncations = "fabric.journal.truncations"  // startups that repaired a torn tail
	mJournalErrors      = "fabric.journal.errors"       // append batches that failed to reach disk
	mJobsRecovered      = "fabric.jobs.recovered"       // in-flight jobs re-adopted after a restart
	mPointsRecovered    = "fabric.points.recovered"     // journaled completions verified against the result index
	mPointsRecoveryLost = "fabric.points.recovery_lost" // journaled completions whose result had vanished
	mPointsFenced       = "fabric.points.fenced"        // stale prior-epoch leases closed as retried at recovery
	mEpoch              = "fabric.epoch"                // gauge: this incarnation's fencing epoch
)

// initMetrics pre-registers every fabric metric at zero, the same
// stable-exposition convention the server follows.
func initMetrics(m *metrics.Synced) {
	for _, name := range []string{
		mJobsSubmitted, mJobsCompleted, mJobsFailed, mJobsCacheHits,
		mJobsQuotaRejected, mJobsRejected,
		mPointsAssigned, mPointsCompleted, mPointsRetried, mPointsFailed,
		mDispatched,
		mCacheHits, mCacheRemoteHits,
		mWorkersRegistered, mWorkersDeaths,
		mJournalRecords, mJournalReplayed, mJournalTruncations, mJournalErrors,
		mJobsRecovered, mPointsRecovered, mPointsRecoveryLost, mPointsFenced,
	} {
		m.Add(name, 0)
	}
	m.Set(mWorkersAlive, 0)
	m.Set(mEpoch, 0)
	m.Set(mSlotsTotal, 0)
	m.Set(mSlotsBusy, 0)
}

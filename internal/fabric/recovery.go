package fabric

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fabric/journal"
	"repro/internal/server"
)

// Crash recovery: openJournal replays the write-ahead log into the
// coordinator a New() is building, so a restart against the same
// JournalDir resumes exactly the work its predecessor left unfinished.
//
// The replay rules, per job:
//
//   - job_merged seen        → the job is done; its result lives in the
//     content-addressed cache, so the job's records are compacted away
//     entirely (a resubmission is a cache hit).
//   - job_failed seen        → the job is terminal; it is rehydrated in
//     StateFailed with its error, code, and repro bundle, so GET
//     /v1/jobs/{id} and /repro keep answering across the restart.
//   - neither                → the job was in flight when the process
//     died; it is re-adopted under its original id and re-run.
//
// Re-running an in-flight job does not redo finished work: every
// point_completed record is verified against the result index
// (canon.PointKey keeps coordinator and workers deriving identical
// addresses), and a verified point short-circuits through the cache
// when the re-run reaches it (fabric.points.recovered). A completed
// record whose result has vanished from the index is simply
// re-dispatched (fabric.points.recovery_lost), and its new lease closes
// point_retried, since the point's one point_completed is already in
// the log — the journal is a promise about bookkeeping, the cache about
// bytes, and recovery trusts each only for its own half.
//
// Epoch fencing: point_assigned records carry the epoch that issued
// the lease. Assignments from a previous epoch that never reached an
// outcome are fenced — closed with a point_retried record at recovery
// (fabric.points.fenced) — so the conservation identity
// assigned = completed + retried + failed holds across the crash, and
// no stale lease from the dead incarnation can ever count twice. A
// worker that survived the partition and still holds such a lease
// does its work for nothing; its completion RPC response has nobody
// listening, and the re-issued lease produces the (identical,
// content-addressed) result exactly once.

// rjob accumulates one job's replayed state.
type rjob struct {
	accepted journal.Record
	seq      []journal.Record // every record of the job, in order
	pending  map[int]bool     // assigned without an outcome (stale leases)
	done     map[int]string   // point index → result key (completed)
	merged   bool
	failRec  *journal.Record
}

// openJournal opens cfg.JournalDir (no-op when empty), replays the log,
// re-adopts in-flight jobs, rehydrates failed ones, picks this
// incarnation's epoch, and compacts the log down to what the next
// recovery will need. A log that replays empty has nothing to compact:
// Rewrite appends the epoch record in place, with one sync that covers
// the fresh log's magic too. Called from New before the reaper starts.
func (c *Coordinator) openJournal() error {
	if c.cfg.JournalDir == "" {
		c.epoch = 1
		return nil
	}
	jn, rep, err := journal.Open(c.cfg.JournalDir, c.faults)
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	c.journal = jn
	c.metrics.Add(mJournalReplayed, int64(len(rep.Records)))
	if rep.TruncatedBytes > 0 {
		c.metrics.Inc(mJournalTruncations)
	}

	// Fold the log into per-job state.
	var maxEpoch uint64
	byID := make(map[string]*rjob)
	var order []string
	maxNum := 0
	for _, rec := range rep.Records {
		if rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
		if rec.Type == journal.TypeEpoch || rec.Job == "" {
			continue
		}
		r := byID[rec.Job]
		if r == nil {
			r = &rjob{pending: make(map[int]bool), done: make(map[int]string)}
			byID[rec.Job] = r
			order = append(order, rec.Job)
			if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "f")); err == nil && n > maxNum {
				maxNum = n
			}
		}
		r.seq = append(r.seq, rec)
		switch rec.Type {
		case journal.TypeJobAccepted:
			r.accepted = rec
		case journal.TypePointAssigned:
			r.pending[rec.Index] = true
		case journal.TypePointCompleted:
			delete(r.pending, rec.Index)
			r.done[rec.Index] = rec.Key
		case journal.TypePointRetried, journal.TypePointFailed:
			delete(r.pending, rec.Index)
		case journal.TypeJobMerged:
			r.merged = true
		case journal.TypeJobFailed:
			rc := rec
			r.failRec = &rc
		}
	}
	c.epoch = maxEpoch + 1
	c.SkipIDs(maxNum)

	// Compact: the new epoch record, then every record of every
	// unmerged job, then a fence-closing point_retried for each stale
	// lease the dead incarnation left open.
	keep := []journal.Record{{Type: journal.TypeEpoch, Epoch: c.epoch}}
	var fences []journal.Record
	for _, id := range order {
		r := byID[id]
		if r.merged {
			continue
		}
		keep = append(keep, r.seq...)
		if r.failRec != nil {
			continue
		}
		for idx := range r.pending {
			fences = append(fences, journal.Record{Type: journal.TypePointRetried, Job: id, Index: idx})
		}
	}
	keep = append(keep, fences...)
	if err := c.journal.Rewrite(keep); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	c.metrics.Add(mPointsFenced, int64(len(fences)))

	// Rehydrate terminal failures and re-adopt the in-flight remainder.
	for _, id := range order {
		r := byID[id]
		if r.merged {
			continue
		}
		if r.accepted.Type == "" {
			continue // point records without an accept: torn past repair
		}
		if err := c.rehydrate(id, r); err != nil {
			return err
		}
	}
	return nil
}

// rehydrate hands one journaled job to the job core. Failed jobs come
// back terminal; in-flight jobs come back queued and re-run, with their
// verified completions marked.
func (c *Coordinator) rehydrate(id string, r *rjob) error {
	var p server.JobParams
	if err := json.Unmarshal(r.accepted.Params, &p); err != nil {
		return fmt.Errorf("fabric: journaled params of job %s: %w", id, err)
	}
	j := &server.Job{ID: id, Experiment: r.accepted.Experiment, Params: p,
		Key: r.accepted.Key, Tenant: r.accepted.Tenant}
	if r.failRec != nil {
		c.Adopt(j, &server.APIError{Code: r.failRec.Code, Message: r.failRec.Error}, r.failRec.Repro)
		return nil
	}
	jdone := make(map[int]bool, len(r.done))
	for idx, key := range r.done {
		// Trust the journal's bookkeeping only as far as the index still
		// holds the bytes: a verified point is reused (the re-run cache-
		// hits it), a lost one re-dispatches from scratch. Either way its
		// completion is journaled already, so a re-run closes its lease
		// point_retried (completePoint).
		jdone[idx] = true
		if _, ok := c.cache.Get(key); ok {
			c.metrics.Inc(mPointsRecovered)
		} else {
			c.metrics.Inc(mPointsRecoveryLost)
		}
	}
	c.Adopt(j, nil, nil)
	c.run(j, jdone)
	return nil
}

package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/server"
)

// admit is the coordinator's Daemon.Admit: a tenant at its in-flight
// job quota is refused with a Retry-After (429 quota_exceeded).
func (c *Coordinator) admit(tenant string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.quota(tenant); q > 0 && c.tenants[tenant] >= q {
		c.metrics.Inc(mJobsQuotaRejected)
		return fmt.Errorf("%w: tenant %q has %d jobs in flight (quota %d)",
			server.ErrQuotaExceeded, tenant, c.tenants[tenant], q)
	}
	return nil
}

// startJob is the coordinator's Daemon.Start, called with the job
// core's mutex held for an accepted job the cache could not answer. It
// journals the acceptance before the run starts: a job either never
// existed or is recoverable — there is no window where work is in
// flight for a job a restart would not know about. Cache-answered jobs
// are deliberately not journaled; resubmission hits the cache again.
func (c *Coordinator) startJob(j *server.Job) error {
	if raw, err := json.Marshal(j.Params); err == nil {
		c.jappend(journal.Record{Type: journal.TypeJobAccepted, Job: j.ID,
			Tenant: j.Tenant, Experiment: j.Experiment, Params: raw, Key: j.Key})
	}
	c.run(j, nil)
	return nil
}

// run starts job j's runner, counting it against its tenant's quota.
// jdone marks the points a previous incarnation already journaled
// completed (nil for a fresh job).
func (c *Coordinator) run(j *server.Job, jdone map[int]bool) {
	c.mu.Lock()
	c.tenants[j.Tenant]++
	c.mu.Unlock()
	c.wg.Add(1)
	go c.runJob(j, jdone)
}

// runJob drives one job to completion: the experiment's points shard
// across the fleet and merge here. The terminal journal record goes
// down before the job turns terminal.
func (c *Coordinator) runJob(j *server.Job, jdone map[int]bool) {
	defer func() {
		c.mu.Lock()
		c.tenants[j.Tenant]--
		if c.tenants[j.Tenant] <= 0 {
			delete(c.tenants, j.Tenant)
		}
		c.mu.Unlock()
		c.wg.Done()
	}()
	c.MarkRunning(j)

	var val []byte
	var err error
	if specs, ok := experiments.Decompose(j.Experiment, j.Params.RunConfig()); ok {
		val, err = c.runSharded(j, specs, jdone)
	} else {
		err = fmt.Errorf("experiment %q has no point decomposition", j.Experiment)
	}
	var repro []byte
	if err == nil {
		// Degrade on a failed write exactly as the server does: the merged
		// result is in hand, only the shared copy is lost. The merged
		// record goes down after the Put — it is recovery's licence to
		// forget the job, so the result must already be addressable.
		_ = c.cache.Put(j.Key, val)
		c.jappend(journal.Record{Type: journal.TypeJobMerged, Job: j.ID, Key: j.Key})
	} else {
		repro = c.BuildRepro(j, err)
		c.jappend(journal.Record{Type: journal.TypeJobFailed, Job: j.ID,
			Error: err.Error(), Code: server.ErrorCodeOf(err), Repro: repro})
	}
	c.Finish(j, val, err, repro)
}

// runSharded runs a decomposed sweep by slot-aware pull dispatch, the
// fleet form of a cascade handing the next chunk to whichever processor
// is ready for it, one chunk per hand-off. Up to MaxInflight dispatchers
// each wait for a free worker slot (acquireSlot), only then claim one
// point from the sweep's PointQueue — preferring a prefix group that
// worker already holds or is building — and ship it to the worker whose
// slot they hold. A point is never queued behind a busy worker, so the
// tail of the sweep goes to whichever worker frees up first. Results
// merge in index order with the pool's lowest-index-error rule: once a
// point fails, the queue hands out no higher index, and the job reports
// the failure of the lowest-index one, independent of dispatch
// interleaving.
func (c *Coordinator) runSharded(j *server.Job, specs []experiments.PointSpec, jdone map[int]bool) ([]byte, error) {
	j.SetProgress(0, len(specs))
	if jdone == nil {
		jdone = make(map[int]bool)
	}
	sw := &sweep{
		j:       j,
		jdone:   jdone,
		q:       experiments.NewPointQueue(specs),
		specs:   specs,
		keys:    make([]string, len(specs)),
		results: make([]experiments.PointResult, len(specs)),
		errs:    make([]error, len(specs)),
	}
	for i := range specs {
		key, err := canon.PointKey(specs[i])
		if err != nil {
			sw.fail(i, server.Coded(server.CodeBadRequest, "", err))
		}
		sw.keys[i] = key
	}
	dispatchers := min(c.cfg.MaxInflight, len(specs))
	var wg sync.WaitGroup
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sw.q.Unclaimed() > 0 {
				s, err := c.acquireSlot("")
				if err != nil {
					return // the run context died; unclaimed points fail below
				}
				idx, ok := sw.q.Next(s.name)
				if !ok {
					c.releaseSlot(s)
					return
				}
				c.runPoint(sw, idx, s)
			}
		}()
	}
	wg.Wait()
	for i, e := range sw.errs {
		if e != nil {
			// The repro bundle replays the failing point and records its
			// failure free of dispatch framing.
			return nil, server.PointFailure(specs[i], e, fmt.Errorf("point %d: %w", i, e))
		}
	}
	if sw.q.Unclaimed() > 0 {
		return nil, c.runCtx.Err() // points left unclaimed when dispatch stopped
	}
	merged, err := experiments.MergePoints(j.Experiment, j.Params.RunConfig(), sw.results)
	if err != nil {
		return nil, err
	}
	return server.RenderJSON(merged)
}

// sweep is one sharded job's dispatch state, shared by its dispatchers.
// Keys are set before dispatch starts; each index's result and error
// are written only by the dispatcher that claimed the index.
type sweep struct {
	j       *server.Job
	q       *experiments.PointQueue
	specs   []experiments.PointSpec
	keys    []string
	results []experiments.PointResult
	errs    []error

	// jdone marks point indexes whose point_completed journal record
	// already exists, either written this incarnation or replayed from a
	// previous one — the idempotence fence that keeps a re-driven sweep
	// from journaling (and thus counting) the same completion twice.
	jmu   sync.Mutex
	jdone map[int]bool
}

// fail records point idx's terminal error; the queue stops handing out
// higher indices.
func (sw *sweep) fail(idx int, err error) {
	sw.errs[idx] = err
	sw.q.Fail(idx)
}

// runPoint resolves point idx on the worker slot held: the
// coordinator's own index first, then one dispatch per attempt until the
// point completes, its error is terminal, or its attempt budget runs
// out. After a failed attempt the slot goes back; the retry backs off
// without holding one, then acquires a fresh slot — preferring a worker
// other than the one that just failed.
//
// Every dispatch is bracketed by journal records: point_assigned
// (stamped with this incarnation's epoch) before the RPC, then exactly
// one of point_completed / point_retried / point_failed, so at any
// instant the log's open assignments are precisely the in-flight
// leases, a crash leaves nothing uncountable, and the conservation
// identity (metrics.go) holds. A cache-answered point writes no records
// at all: no lease was ever issued for it.
func (c *Coordinator) runPoint(sw *sweep, idx int, held slot) {
	j, key := sw.j, sw.keys[idx]
	defer func() {
		if held.name != "" {
			c.releaseSlot(held)
		}
	}()
	if err := c.runCtx.Err(); err != nil {
		sw.fail(idx, err)
		return
	}
	if val, ok := c.cache.Get(key); ok {
		var res experiments.PointResult
		if json.Unmarshal(val, &res) == nil {
			c.metrics.Inc(mCacheHits)
			sw.results[idx] = res
			j.PointDone()
			return
		}
	}

	backoff := c.cfg.RetryBackoff
	failed := "" // the worker the last attempt failed on
	for attempt := 1; ; attempt++ {
		if held.name == "" {
			var err error
			if held, err = c.acquireSlot(failed); err != nil {
				sw.fail(idx, err)
				return
			}
		}
		c.metrics.Inc(mDispatched)
		c.openLease()
		c.jappend(journal.Record{Type: journal.TypePointAssigned, Job: j.ID,
			Index: idx, Key: key, Epoch: c.epoch})
		res, cached, err := c.shipPoint(held.url, key, sw.specs[idx])
		switch code := server.ExplicitCode(err); {
		case err == nil:
			sw.results[idx] = res
			c.completePoint(sw, idx, res, cached)
			if !cached {
				sw.q.Done(held.name, idx) // the worker holds the point's prefix now
			}
			return
		case terminalCode(code):
			c.settleLease(mPointsFailed)
			c.jappend(journal.Record{Type: journal.TypePointFailed, Job: j.ID,
				Index: idx, Error: err.Error(), Code: code})
			sw.fail(idx, err)
			return
		}
		c.settleLease(mPointsRetried)
		c.jappend(journal.Record{Type: journal.TypePointRetried, Job: j.ID, Index: idx})
		if attempt >= c.cfg.MaxPointAttempts {
			sw.fail(idx, fmt.Errorf("point %s undeliverable after %d attempts: %w", key[:12], attempt, err))
			return
		}
		failed = held.name
		c.releaseSlot(held)
		held = slot{}
		select {
		case <-time.After(backoff):
		case <-c.runCtx.Done():
			sw.fail(idx, c.runCtx.Err())
			return
		}
		backoff = nextBackoff(backoff)
	}
}

// completePoint closes one successful lease: the result becomes
// addressable, the journal closes the assignment (only once per point
// ever — a replayed completion that re-ran because its cached bytes
// were lost must not double-count), and job progress advances by one
// point.
func (c *Coordinator) completePoint(sw *sweep, idx int, res experiments.PointResult, cached bool) {
	c.settleLease(mPointsCompleted)
	if cached {
		c.metrics.Inc(mCacheRemoteHits)
	}
	if val, merr := json.Marshal(res); merr == nil {
		_ = c.cache.Put(sw.keys[idx], val)
	}
	sw.jmu.Lock()
	first := !sw.jdone[idx]
	sw.jdone[idx] = true
	sw.jmu.Unlock()
	if first {
		c.jappend(journal.Record{Type: journal.TypePointCompleted, Job: sw.j.ID, Index: idx, Key: sw.keys[idx]})
	} else {
		c.jappend(journal.Record{Type: journal.TypePointRetried, Job: sw.j.ID, Index: idx})
	}
	sw.j.PointDone()
}

// openLease counts one point assignment as in flight.
func (c *Coordinator) openLease() {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	c.metrics.Inc(mPointsAssigned)
	c.leases++
	c.checkPointsLocked()
}

// settleLease closes one in-flight assignment with its outcome: the
// mPointsCompleted, mPointsRetried or mPointsFailed counter.
func (c *Coordinator) settleLease(outcome string) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	c.metrics.Inc(outcome)
	c.leases--
	c.checkPointsLocked()
}

// checkPointsLocked checks the point identity (metrics.go) on every
// lease transition; a violation latches /healthz degraded through the
// job core. Callers hold leaseMu.
func (c *Coordinator) checkPointsLocked() {
	snap := c.metrics.Snapshot()
	assigned, completed := snap.Get(mPointsAssigned), snap.Get(mPointsCompleted)
	retried, failed := snap.Get(mPointsRetried), snap.Get(mPointsFailed)
	if assigned != completed+retried+failed+c.leases {
		c.Violated("point conservation violated: %s=%d %s=%d %s=%d %s=%d in_flight=%d",
			mPointsAssigned, assigned, mPointsCompleted, completed, mPointsRetried, retried,
			mPointsFailed, failed, c.leases)
	}
}

func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > time.Second {
		d = time.Second
	}
	return d
}

// terminalCode reports whether a worker's error code means the point
// itself is bad — retrying it elsewhere would fail identically.
func terminalCode(code string) bool {
	switch code {
	case server.CodeQueueFull, server.CodeShuttingDown:
		return false // load shedding: another worker (or a later try) can serve
	case "":
		return false // no typed code = transport-level trouble
	default:
		return true
	}
}

// shipPoint performs one lease: it ships one point to a worker in the
// single POST /v1/points form and decodes the one envelope the worker
// answers with into the point's result and whether the worker served it
// from its cache. Anything else is an error. It carries the worker's
// typed code (see server.ExplicitCode) when that code is terminal — the
// point itself is bad, and a retry elsewhere would fail identically —
// and is untyped otherwise: load shedding (queue_full, shutting_down),
// transport trouble, or a reply without a result, all for the caller to
// retry.
func (c *Coordinator) shipPoint(workerURL, key string, spec experiments.PointSpec) (experiments.PointResult, bool, error) {
	var none experiments.PointResult
	if err := c.faults.Fail(SiteAssign); err != nil {
		return none, false, fmt.Errorf("dispatch to %s: %w", workerURL, err)
	}
	body, err := json.Marshal(map[string]interface{}{"key": key, "point": spec})
	if err != nil {
		return none, false, server.Coded(server.CodeBadRequest, "", err)
	}
	req, err := http.NewRequestWithContext(c.runCtx, "POST", workerURL+"/v1/points", bytes.NewReader(body))
	if err != nil {
		return none, false, server.Coded(server.CodeBadRequest, "", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.VersionHeader, server.APIVersion)
	resp, err := c.client.Do(req)
	if err != nil {
		return none, false, fmt.Errorf("dispatch to %s: %w", workerURL, err)
	}
	defer resp.Body.Close()
	var env server.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return none, false, fmt.Errorf("dispatch to %s: bad envelope: %w", workerURL, err)
	}
	switch {
	case env.Error != nil && terminalCode(env.Error.Code):
		return none, false, server.Coded(env.Error.Code, env.Error.Message,
			fmt.Errorf("worker %s: %s", workerURL, env.Error.Message))
	case env.Error != nil:
		return none, false, fmt.Errorf("dispatch to %s: %s", workerURL, env.Error.Message)
	case resp.StatusCode != http.StatusOK || env.Point == nil:
		return none, false, fmt.Errorf("dispatch to %s: status %d without a point result", workerURL, resp.StatusCode)
	}
	return *env.Point, env.Cached, nil
}

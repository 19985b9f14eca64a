package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
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
// is ready for it. Up to MaxInflight dispatchers each wait for a free
// worker slot (acquireSlot), only then claim a lease of up to Batch
// points of one prefix group from the sweep's PointQueue — preferring a
// group whose prefix that worker already holds or is building — and
// ship it to the worker whose slot they hold. A lease is never queued
// behind a busy worker, so the tail of the sweep goes to whichever
// worker frees up first. Results merge in index order with the pool's
// lowest-index-error rule: once a point fails, the queue hands out no
// higher index, and the job reports the failure of the lowest-index
// one, independent of dispatch interleaving.
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
				lease := sw.q.Next(s.name, c.cfg.Batch)
				if lease == nil {
					c.releaseSlot(s)
					return
				}
				c.runLease(sw, lease, s)
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
// are written only by the lease that holds the index.
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

// leaseItem is one point riding a batched lease.
type leaseItem struct {
	idx  int
	key  string
	spec experiments.PointSpec
}

// runLease resolves the lease's points to results on the worker slot held:
// the coordinator's own index first, then batched dispatch until every
// point retires, its attempt budget runs out, or its error is terminal.
// After each RPC the slot goes back; a retry backs off without holding
// one, then acquires a fresh slot — preferring a worker other than the
// one that just failed — and re-ships only the unfinished remainder:
// points whose outcomes arrived before a worker died are closed and
// never re-dispatched.
//
// Every shipped point is bracketed by journal records exactly as
// unbatched dispatch was — point_assigned (stamped with this
// incarnation's epoch) before the RPC, then exactly one of
// point_completed / point_retried / point_failed per assignment — so at
// any instant the log's open assignments are precisely the in-flight
// leases, a crash leaves nothing uncountable, and the conservation
// identity (metrics.go) holds at any batch size. Cache-answered points
// write no records at all: no lease was ever issued for them.
func (c *Coordinator) runLease(sw *sweep, lease []int, held slot) {
	j := sw.j
	defer func() {
		if held.name != "" {
			c.releaseSlot(held)
		}
	}()
	var todo []leaseItem
	for _, idx := range lease {
		if err := c.runCtx.Err(); err != nil {
			sw.fail(idx, err)
			continue
		}
		if val, ok := c.cache.Get(sw.keys[idx]); ok {
			var res experiments.PointResult
			if jerr := json.Unmarshal(val, &res); jerr == nil {
				c.metrics.Inc(mCacheHits)
				sw.results[idx] = res
				j.PointDone()
				continue
			}
		}
		todo = append(todo, leaseItem{idx: idx, key: sw.keys[idx], spec: sw.specs[idx]})
	}

	attempts := make(map[int]int, len(todo))
	backoff := c.cfg.RetryBackoff
	failed := "" // the worker the last attempt failed on
	for len(todo) > 0 {
		if held.name == "" {
			var err error
			if held, err = c.acquireSlot(failed); err != nil {
				for _, it := range todo {
					sw.fail(it.idx, err)
				}
				return
			}
		}
		url, holder := held.url, held.name
		c.metrics.Inc(mBatchesDispatched)
		shipped := todo
		for _, it := range shipped {
			attempts[it.idx]++
			c.openLease()
			c.jappend(journal.Record{Type: journal.TypePointAssigned, Job: j.ID,
				Index: it.idx, Key: it.key, Epoch: c.epoch})
		}
		// done marks leases closed by an outcome this round — completed or
		// terminally failed; anything still open afterwards is the
		// remainder, journaled retried and re-shipped.
		done := make(map[int]bool, len(shipped))
		err := c.shipBatch(url, shipped, func(pos int, o server.PointOutcome) {
			it := shipped[pos]
			switch {
			case o.Error == nil && o.Point != nil:
				done[it.idx] = true
				sw.results[it.idx] = *o.Point
				c.completePoint(sw, it, *o.Point, o.Cached)
				if !o.Cached {
					sw.q.Done(holder, it.idx) // the worker holds the point's prefix now
				}
			case o.Error != nil && terminalCode(o.Error.Code):
				done[it.idx] = true
				ferr := server.Coded(o.Error.Code, o.Error.Message,
					fmt.Errorf("worker %s: %s", url, o.Error.Message))
				c.settleLease(mPointsFailed)
				c.jappend(journal.Record{Type: journal.TypePointFailed, Job: j.ID,
					Index: it.idx, Error: ferr.Error(), Code: o.Error.Code})
				sw.fail(it.idx, ferr)
				// A malformed or shed outcome (non-terminal error, or a frame
				// with neither result nor error) leaves the lease open; the
				// remainder pass below retries it.
			}
		})
		if err != nil {
			// A batch-level terminal error — the worker refused the request
			// in a way a retry elsewhere would reproduce — fails every open
			// lease identically.
			if code := server.ExplicitCode(err); terminalCode(code) {
				for _, it := range shipped {
					if done[it.idx] {
						continue
					}
					done[it.idx] = true
					c.settleLease(mPointsFailed)
					c.jappend(journal.Record{Type: journal.TypePointFailed, Job: j.ID,
						Index: it.idx, Error: err.Error(), Code: code})
					sw.fail(it.idx, err)
				}
			}
		}
		var rest []leaseItem
		for _, it := range shipped {
			if done[it.idx] {
				continue
			}
			c.settleLease(mPointsRetried)
			c.jappend(journal.Record{Type: journal.TypePointRetried, Job: j.ID, Index: it.idx})
			if attempts[it.idx] >= c.cfg.MaxPointAttempts {
				cause := err
				if cause == nil {
					cause = errors.New("worker shed the point")
				}
				sw.fail(it.idx, fmt.Errorf("point %s undeliverable after %d attempts: %w",
					it.key[:12], attempts[it.idx], cause))
				continue
			}
			rest = append(rest, it)
		}
		todo = rest
		if len(todo) == 0 {
			return
		}
		failed = held.name
		c.releaseSlot(held)
		held = slot{}
		select {
		case <-time.After(backoff):
		case <-c.runCtx.Done():
			for _, it := range todo {
				sw.fail(it.idx, c.runCtx.Err())
			}
			return
		}
		backoff = nextBackoff(backoff)
	}
}

// completePoint closes one successful lease: the result becomes
// addressable, the journal closes the assignment (only once per point
// ever — a replayed completion that re-ran because its cached bytes
// were lost must not double-count), and job progress advances by one
// point — which is what keeps ?wait progress per-point under batching.
func (c *Coordinator) completePoint(sw *sweep, it leaseItem, res experiments.PointResult, cached bool) {
	c.settleLease(mPointsCompleted)
	if cached {
		c.metrics.Inc(mCacheRemoteHits)
	}
	if val, merr := json.Marshal(res); merr == nil {
		_ = c.cache.Put(it.key, val)
	}
	sw.jmu.Lock()
	first := !sw.jdone[it.idx]
	sw.jdone[it.idx] = true
	sw.jmu.Unlock()
	if first {
		c.jappend(journal.Record{Type: journal.TypePointCompleted, Job: sw.j.ID, Index: it.idx, Key: it.key})
	} else {
		c.jappend(journal.Record{Type: journal.TypePointRetried, Job: sw.j.ID, Index: it.idx})
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

// shipBatch performs one batched lease dispatch: every item in one RPC,
// outcomes streamed back per point (the coordinator negotiates ndjson;
// a plain single-envelope reply with outcomes is accepted too).
// onOutcome fires once per received outcome, in arrival order, while
// the stream is still open — this is what advances job progress and
// closes leases point by point. Only the first outcome for each shipped
// position is delivered: one naming a position outside the batch, or
// one already answered, is dropped, so a confused or hostile worker can
// neither close a lease twice nor deliver more outcomes than were
// shipped. The returned error carries the worker's typed code (see
// server.ExplicitCode) when the worker answered with one,
// or an untyped transport error when it did not; either way, outcomes
// already delivered stand — only the remainder is the caller's to
// retry.
func (c *Coordinator) shipBatch(workerURL string, items []leaseItem, onOutcome func(pos int, o server.PointOutcome)) error {
	if err := c.faults.Fail(SiteAssign); err != nil {
		return fmt.Errorf("dispatch to %s: %w", workerURL, err)
	}
	wire := make([]map[string]interface{}, len(items))
	for i, it := range items {
		wire[i] = map[string]interface{}{"key": it.key, "point": it.spec}
	}
	body, err := json.Marshal(map[string]interface{}{"points": wire})
	if err != nil {
		return server.Coded(server.CodeBadRequest, "", err)
	}
	req, err := http.NewRequestWithContext(c.runCtx, "POST", workerURL+"/v1/points", bytes.NewReader(body))
	if err != nil {
		return server.Coded(server.CodeBadRequest, "", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", server.NDJSONContentType)
	req.Header.Set(server.VersionHeader, server.APIVersion)
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch to %s: %w", workerURL, err)
	}
	defer resp.Body.Close()
	seen := make([]bool, len(items))
	deliver := func(o server.PointOutcome) {
		if o.Index >= 0 && o.Index < len(items) && !seen[o.Index] {
			seen[o.Index] = true
			onOutcome(o.Index, o)
		}
	}

	if !strings.Contains(resp.Header.Get("Content-Type"), server.NDJSONContentType) {
		// Single-envelope reply: a refusal (shedding, draining, bad
		// request), or a worker that answered the batch unstreamed.
		var env server.Envelope
		if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil {
			return fmt.Errorf("dispatch to %s: bad envelope: %w", workerURL, derr)
		}
		if resp.StatusCode != http.StatusOK || len(env.Outcomes) == 0 {
			code, msg := "", fmt.Sprintf("status %d", resp.StatusCode)
			if env.Error != nil {
				code, msg = env.Error.Code, env.Error.Message
			}
			if !terminalCode(code) {
				return fmt.Errorf("dispatch to %s: %s", workerURL, msg)
			}
			return server.Coded(code, msg, fmt.Errorf("worker %s: %s", workerURL, msg))
		}
		for _, o := range env.Outcomes {
			deliver(o)
		}
		return nil
	}

	// Streamed outcomes: one envelope frame per retired point.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env server.Envelope
		if derr := json.Unmarshal(line, &env); derr != nil {
			return fmt.Errorf("dispatch to %s: bad frame: %w", workerURL, derr)
		}
		if env.Error != nil && len(env.Outcomes) == 0 {
			if terminalCode(env.Error.Code) {
				return server.Coded(env.Error.Code, env.Error.Message,
					fmt.Errorf("worker %s: %s", workerURL, env.Error.Message))
			}
			return fmt.Errorf("dispatch to %s: %s", workerURL, env.Error.Message)
		}
		for _, o := range env.Outcomes {
			n++
			deliver(o)
		}
	}
	if serr := sc.Err(); serr != nil {
		return fmt.Errorf("dispatch to %s: stream died after %d outcomes: %w", workerURL, n, serr)
	}
	return nil
}

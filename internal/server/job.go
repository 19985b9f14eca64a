package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// The job core: the one job lifecycle both daemons run. A server and a
// fabric coordinator each hold one JobCore; it owns the job records and
// their states, the submit prelude (defaults, validation, content key,
// shutdown refusal, cache answer), Job/Jobs/Await, point progress, the
// terminal transition with its repro bundle, the runtime conservation
// check, and the HTTP job surface (jobhttp.go). What differs between the
// daemons — how an accepted job runs, extra refusals, extra routes,
// metric names — comes in through Daemon.

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrUnknownExperiment is returned for a name the registry lacks.
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrShuttingDown is returned for submissions after shutdown began.
	ErrShuttingDown = errors.New("server shutting down")
	// ErrQueueFull is returned when a server's bounded job queue is at
	// capacity.
	ErrQueueFull = errors.New("job queue full")
	// ErrQuotaExceeded is returned when a coordinator's tenant is at its
	// in-flight job quota.
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed        (leader jobs)
//	queued → done | failed                  (coalesced followers, cache hits, refusals)
//
// A job cancelled by shutdown finishes failed with the context error.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is the record of one accepted job. The exported fields are fixed
// at acceptance; the rest is guarded by the core's mutex, except point
// progress, which the sweep updates live (hence atomics). done is closed
// exactly once, when the state turns terminal.
type Job struct {
	ID         string
	Experiment string
	Params     JobParams // fully resolved (defaults filled)
	Key        string    // content-addressed cache key of the result
	Tenant     string    // submitting tenant ("" = anonymous)

	state     State
	cached    bool // result served from the cache, no simulation ran
	coalesced bool // attached to an identical in-flight job
	errMsg    string
	errCode   string // typed code classifying errMsg (see errorCode)
	result    []byte // rendered JSON result bytes
	repro     []byte // a failed job's repro bundle (see repro.go)

	created  time.Time
	started  time.Time
	finished time.Time

	pointsDone  atomic.Int64
	pointsTotal atomic.Int64

	done chan struct{}
}

// SetProgress records the job's live point counts.
func (j *Job) SetProgress(done, total int) {
	j.pointsDone.Store(int64(done))
	j.pointsTotal.Store(int64(total))
}

// PointDone advances the job's point progress by one point.
func (j *Job) PointDone() { j.pointsDone.Add(1) }

// progress snapshots the job's live point counts, or nil before the
// sweep has reported anything (jobs whose experiment never parallelizes
// report no point progress at all).
func (j *Job) progress() *Progress {
	total := j.pointsTotal.Load()
	if total == 0 {
		return nil
	}
	return &Progress{PointsDone: int(j.pointsDone.Load()), PointsTotal: int(total)}
}

// JobView is a job's client-facing JSON form.
type JobView struct {
	ID         string          `json:"id"`
	Experiment string          `json:"experiment"`
	Params     JobParams       `json:"params"`
	Key        string          `json:"key"`
	State      State           `json:"state"`
	Cached     bool            `json:"cached"`
	Coalesced  bool            `json:"coalesced,omitempty"`
	Error      string          `json:"error,omitempty"`
	ErrorCode  string          `json:"error_code,omitempty"`
	Created    time.Time       `json:"created"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// view renders the job for clients. Callers must hold the core's mutex.
// withResult controls whether the (possibly large) result bytes ride
// along — job listings omit them, single-job GETs include them.
func (j *Job) view(withResult bool) JobView {
	v := JobView{
		ID:         j.ID,
		Experiment: j.Experiment,
		Params:     j.Params,
		Key:        j.Key,
		State:      j.state,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		Error:      j.errMsg,
		ErrorCode:  j.errCode,
		Created:    j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult && j.state == StateDone {
		v.Result = json.RawMessage(j.result)
	}
	return v
}

// JobMetrics names a daemon's job counters (jobs.* on a server,
// fabric.jobs.* on a coordinator).
type JobMetrics struct {
	Submitted, Completed, Failed, CacheHits, Rejected string
	// Recovered counts jobs re-adopted from a journal; empty for a
	// daemon without one.
	Recovered string
}

// validate checks that every counter a job core always updates is
// named; only Recovered may be empty.
func (n JobMetrics) validate() error {
	for _, f := range []struct{ field, name string }{
		{"Submitted", n.Submitted}, {"Completed", n.Completed}, {"Failed", n.Failed},
		{"CacheHits", n.CacheHits}, {"Rejected", n.Rejected},
	} {
		if f.name == "" {
			return fmt.Errorf("job metric name %s is empty", f.field)
		}
	}
	return nil
}

// Daemon is what a daemon supplies to its job core.
type Daemon struct {
	IDPrefix    string // job ids are IDPrefix + a sequence number
	Experiments []experiments.Experiment
	Cache       *Cache // answers submissions whose result exists
	Metrics     *metrics.Synced
	Names       JobMetrics
	// JobTimeout fills a submission's zero timeout_ms (after the key is
	// derived, so the key never depends on it); 0 leaves it zero.
	JobTimeout time.Duration
	// ProgressInterval is the keep-alive cadence of streaming ?wait
	// responses.
	ProgressInterval time.Duration
	// The armed fault injector, what it was parsed from and the sites it
	// may fire at, recorded in repro bundles.
	Faults     *faults.Injector
	FaultSpec  string
	FaultSeed  int64
	FaultSites []string

	// Admit refuses a submission before a job record exists (nil admits
	// everything). Start runs an accepted job the cache could not
	// answer; an error refuses it, and the job finishes failed with that
	// error. Both are called with the core's mutex held.
	Admit func(tenant string) error
	Start func(j *Job) error
	// QueueDepth, when set, rides on queue_full refusals.
	QueueDepth func() int
	// Routes are the daemon's own /v1 routes, by ServeMux pattern.
	Routes map[string]http.HandlerFunc
	// Idle, when set and true, makes a healthy /healthz answer "idle".
	Idle func() bool
}

// JobCore is one daemon's job table and lifecycle. Create with
// NewJobCore.
type JobCore struct {
	d     Daemon
	infos []experiments.Info
	known map[string]bool
	// logf reports the first conservation violation.
	logf func(format string, args ...any)

	mu        sync.Mutex
	closed    bool
	nextID    int
	jobs      map[string]*Job
	order     []*Job
	jobStates map[State]int // jobs per state, for the conservation check
	// unconserved latches the first conservation violation for /healthz.
	unconserved atomic.Bool
}

// NewJobCore builds the job core for a daemon. It errors when a job
// counter the core always updates has no name.
func NewJobCore(d Daemon) (*JobCore, error) {
	if err := d.Names.validate(); err != nil {
		return nil, err
	}
	c := &JobCore{
		d:         d,
		known:     make(map[string]bool, len(d.Experiments)),
		logf:      log.Printf,
		nextID:    1,
		jobs:      make(map[string]*Job),
		jobStates: make(map[State]int),
	}
	for _, e := range d.Experiments {
		if c.known[e.Name] {
			return nil, fmt.Errorf("duplicate experiment %q", e.Name)
		}
		if !experiments.Decomposable(e.Name) {
			return nil, fmt.Errorf("experiment %q has no point decomposition", e.Name)
		}
		c.known[e.Name] = true
		c.infos = append(c.infos, e.Info())
	}
	return c, nil
}

// Submit accepts one job for a tenant ("" = anonymous). Zero-valued
// parameters are resolved to the registry defaults before anything
// else, so the content-addressed key always reflects fully-resolved
// parameters. A result already in the cache completes the job at once —
// no simulation runs; otherwise the daemon's Start runs it. The
// returned view reflects the job's state at return; poll Job (or await
// it) for completion.
func (c *JobCore) Submit(tenant, experiment string, p JobParams) (JobView, error) {
	if !c.known[experiment] {
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
		p.TimeoutMS = int(c.d.JobTimeout / time.Millisecond)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.d.Metrics.Inc(c.d.Names.Rejected)
		return JobView{}, ErrShuttingDown
	}
	if c.d.Admit != nil {
		if err := c.d.Admit(tenant); err != nil {
			return JobView{}, err
		}
	}
	// Counted only once a submission is accepted (a job record exists),
	// so the conservation identity holds at every instant; refusals
	// count only in their own counters.
	c.d.Metrics.Inc(c.d.Names.Submitted)
	j := c.addLocked(&Job{
		ID:         c.d.IDPrefix + strconv.Itoa(c.nextID),
		Experiment: experiment,
		Params:     p,
		Key:        key,
		Tenant:     tenant,
	})
	c.nextID++
	c.setStateLocked(j, StateQueued)
	if val, ok := c.d.Cache.Get(key); ok {
		j.cached = true
		c.finishLocked(j, val, nil, nil)
		c.d.Metrics.Inc(c.d.Names.CacheHits)
		return j.view(true), nil
	}
	if err := c.d.Start(j); err != nil {
		c.finishLocked(j, nil, err, nil)
		return j.view(true), err
	}
	return j.view(true), nil
}

// addLocked enters a new job record. Callers hold the core's mutex.
func (c *JobCore) addLocked(j *Job) *Job {
	j.created = time.Now()
	j.done = make(chan struct{})
	c.jobs[j.ID] = j
	c.order = append(c.order, j)
	return j
}

// Adopt takes in a job a journal recorded. fail is its recorded failure:
// such a job comes back terminal with its error and repro bundle, and
// stays out of the counters (the incarnation that failed it counted
// it). A job without one was in flight; it comes back queued, counted
// under Names.Recovered, for the daemon to run again.
func (c *JobCore) Adopt(j *Job, fail *APIError, repro []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(j)
	if fail != nil {
		j.state, j.errMsg, j.errCode, j.repro = StateFailed, fail.Message, fail.Code, repro
		j.finished = time.Now()
		close(j.done)
		return
	}
	c.d.Metrics.Inc(c.d.Names.Recovered)
	c.setStateLocked(j, StateQueued)
}

// SkipIDs numbers new jobs past n, so ids a journal once issued are
// never reused.
func (c *JobCore) SkipIDs(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID = max(c.nextID, n+1)
}

// Job returns the view of a submitted job (false when the id is unknown).
func (c *JobCore) Job(id string) (JobView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(true), true
}

// Jobs returns every job in submission order, without result payloads.
func (c *JobCore) Jobs() []JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobView, len(c.order))
	for i, j := range c.order {
		out[i] = j.view(false)
	}
	return out
}

// lookup returns the job record for id, or nil.
func (c *JobCore) lookup(id string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// Await blocks until the job finishes, the timeout elapses (0 = return
// immediately), or cancel is closed/ready; it then returns the current
// view.
func (c *JobCore) Await(id string, timeout time.Duration, cancel <-chan struct{}) (JobView, bool) {
	j := c.lookup(id)
	if j == nil {
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
	return c.Job(id)
}

// MarkRunning moves a queued job to running and returns its start time.
func (c *JobCore) MarkRunning(j *Job) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	j.started = time.Now()
	c.setStateLocked(j, StateRunning)
	return j.started
}

// Finish moves a job to its terminal state and wakes its waiters: done
// with val when err is nil, failed otherwise. A failed job keeps its
// repro bundle: repro when the caller built it already (to journal it),
// else one built here. Finishing a terminal job is a no-op.
func (c *JobCore) Finish(j *Job, val []byte, err error, repro []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishLocked(j, val, err, repro)
}

// finishLocked is Finish with the core's mutex held.
func (c *JobCore) finishLocked(j *Job, val []byte, err error, repro []byte) {
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.finished = time.Now()
	if err != nil {
		if repro == nil {
			repro = c.BuildRepro(j, err)
		}
		j.errMsg, j.errCode, j.repro = err.Error(), errorCode(err), repro
		c.d.Metrics.Inc(c.d.Names.Failed)
		c.setStateLocked(j, StateFailed)
	} else {
		j.result = val
		c.d.Metrics.Inc(c.d.Names.Completed)
		c.setStateLocked(j, StateDone)
	}
	close(j.done)
}

// setStateLocked moves j to state to, keeping the per-state job counts,
// and checks the conservation identity. A terminal move is counted in
// Completed or Failed first. Callers hold the core's mutex.
func (c *JobCore) setStateLocked(j *Job, to State) {
	if j.state != "" {
		c.jobStates[j.state]--
	}
	j.state = to
	c.jobStates[to]++
	c.checkConservationLocked()
}

// checkConservationLocked checks submitted + recovered = completed +
// failed + queued + running, the identity every transition keeps.
// Callers hold the core's mutex.
func (c *JobCore) checkConservationLocked() {
	if c.unconserved.Load() {
		return
	}
	snap, n := c.d.Metrics.Snapshot(), c.d.Names
	submitted, recovered := snap.Get(n.Submitted), snap.Get(n.Recovered) // no name reads 0
	completed, failed := snap.Get(n.Completed), snap.Get(n.Failed)
	queued, running := c.jobStates[StateQueued], c.jobStates[StateRunning]
	if submitted+recovered == completed+failed+int64(queued+running) {
		return
	}
	counts := fmt.Sprintf("%s=%d", n.Submitted, submitted)
	if n.Recovered != "" {
		counts += fmt.Sprintf(" %s=%d", n.Recovered, recovered)
	}
	c.Violated("job conservation violated: %s %s=%d %s=%d queued=%d running=%d",
		counts, n.Completed, completed, n.Failed, failed, queued, running)
}

// Violated latches the first violation of one of the daemon's
// conservation identities: /healthz answers degraded from then on, and
// the message is logged.
func (c *JobCore) Violated(format string, args ...any) {
	if !c.unconserved.Swap(true) {
		c.logf(format, args...)
	}
}

// CloseSubmissions refuses every later submission. It reports whether
// this call closed them (false when they were closed already).
func (c *JobCore) CloseSubmissions() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.closed = true
	return true
}

// Draining reports whether shutdown has begun (submissions are being
// refused while accepted jobs finish).
func (c *JobCore) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Experiments returns the served experiments' metadata.
func (c *JobCore) Experiments() []experiments.Info {
	return c.infos
}

// Metrics returns a snapshot of the daemon's metrics.
func (c *JobCore) Metrics() metrics.Snapshot {
	return c.d.Metrics.Snapshot()
}

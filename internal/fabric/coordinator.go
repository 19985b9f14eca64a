// Package fabric is the distributed sweep fabric: a coordinator that
// accepts experiment jobs through the same versioned envelope API the
// single-node server speaks, decomposes each sweep into point-level
// work units (internal/experiments' decompositions), pulls the points
// onto a fleet of cascade-server workers as their slots free up, and
// merges the returned point results into a response byte-identical to a
// single-node run.
//
// Fleet mechanics:
//
//   - Workers enlist with POST /v1/workers, advertising how many points
//     they run at once (slots), and stay registered by heartbeating; a
//     worker that misses its heartbeat window is declared dead, its
//     slots leave the fleet, and its in-flight points are retried on
//     the survivors (fabric.points.retried).
//   - Dispatch is slot-aware pull: a lease is cut only once some live
//     worker has a free slot, and ships to that worker, so points flow
//     to whoever frees up first (see runSharded).
//   - A point dispatch is a lease bounded by the RPC deadline: a worker
//     that dies mid-point fails the RPC, and the coordinator reassigns
//     the point to another worker's free slot. Work is only ever lost
//     to terminal experiment errors, never to worker death.
//   - Results are content-addressed end to end: the coordinator checks
//     its own cache index before shipping a point (fabric.cache.hits),
//     workers answer from their local cache when they can ("cached"
//     responses count in fabric.cache.remote_hits), and merged job
//     results land under the same render key a single-node server uses
//     — so a fleet and a server sharing a cache directory memoize each
//     other's work.
//   - Admission control: per-tenant quotas (X-Tenant header) bound how
//     many jobs a tenant may have in flight, on top of the workers' own
//     503 load shedding.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/server"
)

// SiteAssign is the fabric's fault-injection site: armed, it fails a
// point dispatch before the RPC is sent, indistinguishable from a
// worker dying at assignment — the deterministic half of the chaos
// tests' worker-kill coverage.
const SiteAssign = "fabric.assign"

// FaultSites returns every injection site the coordinator consults.
// journal.SiteAppend tears write-ahead appends (short write, no fsync)
// to exercise crash-recovery's torn-tail repair.
func FaultSites() []string { return []string{SiteAssign, journal.SiteAppend} }

// Config configures a Coordinator. The zero value coordinates the full
// experiment registry with a memory-only result index and no quotas.
type Config struct {
	// Experiments is the served registry (tests inject synthetic
	// sweeps). Default: experiments.Registry(). Workers must serve a
	// superset: decomposition names are resolved on both sides.
	Experiments []experiments.Experiment
	// CacheDir persists the coordinator's result index under this
	// directory; empty keeps it in memory. Pointing it at the same
	// directory as the workers' caches turns disk into a shared
	// result store for the whole fleet.
	CacheDir string
	// JournalDir enables the write-ahead journal (see the journal
	// package and recovery.go): every job and point transition is
	// durably logged, and a coordinator restarted against the same
	// directory re-adopts in-flight jobs instead of losing them. Empty
	// disables durability (the pre-journal, memory-only behaviour).
	JournalDir string
	// Metrics receives the fleet counters. Default: a fresh registry.
	Metrics *metrics.Synced
	// Faults arms the coordinator's injection sites (see FaultSites).
	Faults *faults.Injector
	// FaultSpec and FaultSeed record what Faults was parsed from, so
	// repro bundles carry the exact injection configuration as a
	// replayable input. Informational: they arm nothing themselves.
	FaultSpec string
	FaultSeed int64
	// QuarantineTTL ages out stale .corrupt files from the result
	// index's disk directory at startup, exactly as the server's
	// sweep does. 0 means server.DefaultQuarantineTTL; negative
	// disables.
	QuarantineTTL time.Duration
	// Client performs worker RPCs. Default: an http.Client whose
	// Timeout is LeaseTimeout.
	Client *http.Client
	// LeaseTimeout bounds one point dispatch end to end: a worker that
	// holds a point longer has lost its lease, the RPC fails, and the
	// point is reassigned. Size it above the workers' point deadline.
	// Default: 2m.
	LeaseTimeout time.Duration
	// HeartbeatTimeout is how long a worker may go silent before it is
	// declared dead. Default: 15s.
	HeartbeatTimeout time.Duration
	// MaxInflight bounds how many worker slots one job may hold at once,
	// i.e. its concurrent point dispatches. The fleet's advertised slots
	// bound all jobs together. Default: 16.
	MaxInflight int
	// MaxPointAttempts bounds how many workers one point is tried on
	// before the job fails with the last transport error. Default: 8.
	MaxPointAttempts int
	// RetryBackoff is the base delay between a failed dispatch and its
	// retry, doubling per attempt (capped at 1s). Default: 50ms.
	RetryBackoff time.Duration
	// DefaultQuota bounds any tenant's in-flight jobs; 0 = unlimited.
	// Quotas overrides it per tenant (a 0 entry means unlimited for
	// that tenant).
	DefaultQuota int
	Quotas       map[string]int
	// ProgressInterval is the keep-alive cadence of streaming ?wait
	// responses. Default: server.DefaultProgressInterval.
	ProgressInterval time.Duration
}

// Coordinator owns the fleet: worker membership and slots, the shared
// result index, and — in the embedded job core, the same one a
// server runs — the job table. Create with New, expose Handler over
// HTTP, stop with Shutdown.
type Coordinator struct {
	*server.JobCore

	cfg     Config
	metrics *metrics.Synced
	cache   *server.Cache
	faults  *faults.Injector
	client  *http.Client

	// Durability (nil journal = memory-only coordination). epoch is
	// this incarnation's fencing token: one greater than any epoch the
	// journal has seen, immutable after New.
	journal *journal.Journal
	epoch   uint64

	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup // job runners + reaper

	stopReap chan struct{} // closed once by Shutdown or Kill

	// Open point leases: assignments not yet settled as completed,
	// retried or failed. Guarded by leaseMu together with the point
	// counters' updates, so the point identity is checked on a
	// consistent cut (see openLease).
	leaseMu sync.Mutex
	leases  int64

	mu      sync.Mutex
	workers map[string]*workerRec
	live    []string       // live workers' names, sorted: acquireSlot's preference order
	tenants map[string]int // tenant → in-flight jobs
	// wake is closed and replaced whenever dispatch capacity may have
	// grown: a slot released, a worker joined or revived, or a worker
	// advertised more slots.
	wake chan struct{}
}

// workerRec is one enlisted worker. Slots is its advertised point
// capacity; Busy counts the leases the coordinator has in flight to it.
// Dispatch never takes Busy past Slots.
type workerRec struct {
	Name     string    `json:"name"`
	URL      string    `json:"url"`
	LastSeen time.Time `json:"last_seen"`
	Alive    bool      `json:"alive"`
	Slots    int       `json:"slots"`
	Busy     int       `json:"busy"`
}

// slot is one claimed unit of a worker's point capacity.
type slot struct{ name, url string }

// New builds a coordinator and starts its heartbeat reaper.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Experiments == nil {
		cfg.Experiments = experiments.Registry()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewSynced()
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 15 * time.Second
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 16
	}
	if cfg.MaxPointAttempts <= 0 {
		cfg.MaxPointAttempts = 8
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = server.DefaultProgressInterval
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.LeaseTimeout}
	}
	initMetrics(cfg.Metrics)
	cache, err := server.NewCache(cfg.CacheDir, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	if cfg.QuarantineTTL == 0 {
		cfg.QuarantineTTL = server.DefaultQuarantineTTL
	}
	if cfg.QuarantineTTL > 0 {
		cache.PurgeQuarantine(cfg.QuarantineTTL)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		metrics:   cfg.Metrics,
		cache:     cache,
		faults:    cfg.Faults,
		client:    cfg.Client,
		runCtx:    runCtx,
		cancelRun: cancel,
		stopReap:  make(chan struct{}),
		workers:   make(map[string]*workerRec),
		tenants:   make(map[string]int),
		wake:      make(chan struct{}),
	}
	c.JobCore, err = server.NewJobCore(server.Daemon{
		IDPrefix:    "f",
		Experiments: cfg.Experiments,
		Cache:       cache,
		Metrics:     cfg.Metrics,
		Names: server.JobMetrics{Submitted: mJobsSubmitted, Completed: mJobsCompleted, Failed: mJobsFailed,
			CacheHits: mJobsCacheHits, Rejected: mJobsRejected, Recovered: mJobsRecovered},
		ProgressInterval: cfg.ProgressInterval,
		Faults:           cfg.Faults,
		FaultSpec:        cfg.FaultSpec,
		FaultSeed:        cfg.FaultSeed,
		FaultSites:       FaultSites(),
		Admit:            c.admit,
		Start:            c.startJob,
		Routes: map[string]http.HandlerFunc{
			"POST /v1/workers":    c.handleWorkerRegister,
			"GET /v1/workers":     c.handleWorkerList,
			"GET /v1/cache/{key}": c.handleCacheProbe,
		},
		Idle: func() bool { return c.metrics.Value(mWorkersAlive) == 0 },
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if err := c.openJournal(); err != nil {
		cancel()
		return nil, err
	}
	c.metrics.Set(mEpoch, int64(c.epoch))
	c.wg.Add(1)
	go c.reaper()
	return c, nil
}

// Epoch returns this incarnation's fencing token: 1 for a fresh
// coordinator, one greater than the predecessor's for each recovery.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// jappend durably journals records, degrading on failure: coordination
// continues memory-only for this batch (the record is lost to a future
// recovery, never to the running job) and fabric.journal.errors counts
// the loss. A closed journal (Kill) is silent — the incarnation is dead
// and its remaining goroutines are just draining.
func (c *Coordinator) jappend(recs ...journal.Record) {
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(recs...); err != nil {
		if !errors.Is(err, journal.ErrClosed) {
			c.metrics.Inc(mJournalErrors)
		}
		return
	}
	c.metrics.Add(mJournalRecords, int64(len(recs)))
}

// Kill simulates a coordinator crash for recovery tests: submissions
// stop, the journal's descriptor closes without compaction or a final
// sync (releasing the incarnation flock exactly as process death
// would), and in-flight work dies with the run context — no drain, no
// terminal journal records. The instance is unusable afterwards;
// recover by calling New against the same JournalDir.
func (c *Coordinator) Kill() {
	if c.CloseSubmissions() {
		close(c.stopReap)
	}
	// Fence the journal before cancelling work so dying dispatch loops
	// cannot journal outcomes a real crash would never have written.
	if c.journal != nil {
		c.journal.Kill()
	}
	c.cancelRun()
	c.wg.Wait()
}

// Shutdown stops the coordinator: new submissions are rejected and
// in-flight jobs drain (their point RPCs are bounded by LeaseTimeout).
// If ctx expires first, the run context is cancelled — dispatch loops
// stop and the affected jobs fail — and ctx's error is returned.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	if c.CloseSubmissions() {
		close(c.stopReap)
	}

	drained := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		c.cancelRun()
		<-drained
		err = ctx.Err()
	}
	c.cancelRun()
	if c.journal != nil {
		c.journal.Close()
	}
	return err
}

// Register enlists a one-slot worker; see RegisterSlots.
func (c *Coordinator) Register(name, url string) error {
	return c.RegisterSlots(name, url, 1)
}

// RegisterSlots enlists (or re-enlists — registration doubles as the
// heartbeat) a worker under a stable name at a base URL, able to run
// slots points at once. A worker changing URLs or slot counts mid-life
// is treated as the same member at a new address or capacity.
func (c *Coordinator) RegisterSlots(name, url string, slots int) error {
	if name == "" || url == "" {
		return errors.New("worker registration needs name and url")
	}
	if slots < 1 {
		return fmt.Errorf("worker %q advertises %d slots, want at least 1", name, slots)
	}
	c.metrics.Inc(mWorkersRegistered)
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[name]
	if !ok {
		w = &workerRec{Name: name}
		c.workers[name] = w
	}
	revived, grew := !w.Alive, slots > w.Slots
	w.URL = url
	w.LastSeen = time.Now()
	w.Alive = true
	w.Slots = slots
	if revived {
		c.membershipChangedLocked()
	}
	if revived || grew {
		c.wakeLocked()
	}
	c.slotGaugesLocked()
	return nil
}

// Workers returns the current membership, sorted by name.
func (c *Coordinator) Workers() []workerRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]workerRec, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// reaper declares silent workers dead. It runs at a quarter of the
// heartbeat window so death detection lags silence by at most ~1.25
// windows.
func (c *Coordinator) reaper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.reapOnce(time.Now())
		case <-c.stopReap:
			return
		case <-c.runCtx.Done():
			return
		}
	}
}

// reapOnce marks every worker silent past the heartbeat window dead and
// refreshes the live set if membership changed.
func (c *Coordinator) reapOnce(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for _, w := range c.workers {
		if w.Alive && now.Sub(w.LastSeen) > c.cfg.HeartbeatTimeout {
			w.Alive = false
			changed = true
			c.metrics.Inc(mWorkersDeaths)
		}
	}
	if changed {
		c.membershipChangedLocked()
	}
}

// membershipChangedLocked rebuilds the sorted live set and refreshes
// the fleet gauges. Callers must hold c.mu.
func (c *Coordinator) membershipChangedLocked() {
	c.live = c.live[:0]
	for _, w := range c.workers {
		if w.Alive {
			c.live = append(c.live, w.Name)
		}
	}
	sort.Strings(c.live)
	c.metrics.Set(mWorkersAlive, int64(len(c.live)))
	c.slotGaugesLocked()
}

// slotGaugesLocked refreshes the live fleet's slot gauges. Callers must
// hold c.mu.
func (c *Coordinator) slotGaugesLocked() {
	var total, busy int64
	for _, w := range c.workers {
		if w.Alive {
			total += int64(w.Slots)
			busy += int64(w.Busy)
		}
	}
	c.metrics.Set(mSlotsTotal, total)
	c.metrics.Set(mSlotsBusy, busy)
}

// wakeLocked signals dispatchers waiting for capacity. Callers must
// hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// acquireSlot blocks until some live worker has a free slot, then claims
// it. Among free workers name order breaks the tie, and avoid — the
// worker a retry just failed on — is taken only when no other worker is
// free. The wait is on c.wake, so it never polls; it fails only when
// the run context dies.
func (c *Coordinator) acquireSlot(avoid string) (slot, error) {
	for {
		if err := c.runCtx.Err(); err != nil {
			return slot{}, err
		}
		c.mu.Lock()
		var pick *workerRec // first free worker by name, avoid only as a last resort
		for _, name := range c.live {
			if w := c.workers[name]; w.Busy < w.Slots && (pick == nil || pick.Name == avoid) {
				pick = w
			}
		}
		if pick != nil {
			pick.Busy++
			c.slotGaugesLocked()
			s := slot{name: pick.Name, url: pick.URL}
			c.mu.Unlock()
			return s, nil
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-c.runCtx.Done():
		}
	}
}

// releaseSlot returns a claimed slot and wakes waiting dispatchers. The
// slot goes back to its worker whether or not the worker is still alive:
// a dead worker's count drains as its failed RPCs return, so it comes
// back with a clean slate if it re-registers.
func (c *Coordinator) releaseSlot(s slot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[s.name].Busy--
	c.slotGaugesLocked()
	c.wakeLocked()
}

// quota returns the tenant's in-flight job bound (0 = unlimited).
func (c *Coordinator) quota(tenant string) int {
	if q, ok := c.cfg.Quotas[tenant]; ok {
		return q
	}
	return c.cfg.DefaultQuota
}

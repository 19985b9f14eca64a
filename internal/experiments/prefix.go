package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/wave5"
)

// Prefix reuse. Sweep points overwhelmingly share strategy-independent
// work — the warm-up calls of a steady-state sweep, the prior-parallel
// start state of every loop of a cold call — and differ only in the tail
// (strategy, chunk size). A decomposition that declares its points'
// prefixes lets a worker, or RunDecomposed, simulate each distinct prefix
// once and park it in a bounded LRU: a sealed machine.Snapshot forked per
// point, or one packed machine.Capture per loop loaded per point. O(points
// x full-run) becomes O(prefixes x prefix + points x tail).
//
// The contract that keeps the fabric's byte-identity guarantee intact:
// RunWarm(BuildPrefix(Prefix(ps)), ps) must produce exactly the bytes
// Run(ps) produces, for every point that declares a prefix. The
// decompositions here satisfy it by construction — the cold Run path is
// literally BuildPrefix followed by RunWarm on a private state — and the
// equivalence tests in prefix_test.go and golden_test.go pin it.

// PrefixSpec is the serializable resolved description of a shared sweep
// prefix. Everything that determines the post-prefix machine state is a
// field; the canonical content address over the resolved form (machine
// config bytes, dataset params) is PrefixState.Key.
type PrefixSpec struct {
	// Machine is the machine preset name; Procs overrides its count.
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	// Scale is the PARMVR dataset scale factor.
	Scale float64 `json:"scale"`
	// WarmupCalls sequential full-PARMVR calls run before the snapshot of
	// a warm prefix.
	WarmupCalls int `json:"warmup_calls"`
	// Distribute selects the prefix kind. True is a warm prefix: the
	// surrounding parallel phases distribute the whole dataset's lines
	// dirty across caches, the warm-up calls run, and the machine is
	// sealed in a copy-on-write snapshot. False is a cold-call prefix:
	// for every PARMVR loop, the state that loop of a cold call starts
	// from (caches reset, then the loop's own data distributed dirty by
	// the parallel section before it), held as a packed capture.
	Distribute bool `json:"distribute,omitempty"`
}

// PrefixState is a built prefix, immutable once built: any number of
// points run off one state concurrently, without a lock. A warm prefix
// holds the sealed machine snapshot and the space checkpoint every point
// forks from; each point builds its own dataset and loads the checkpoint
// into it (memsim.Space.LoadState). A cold-call prefix holds one capture
// per loop, which points load into their own machines over their own
// datasets.
type PrefixState struct {
	Spec PrefixSpec
	Key  string

	cfg machine.Config
	p   wave5.Params
	mem int64

	// Warm prefixes.
	snap *machine.Snapshot
	ck   *memsim.SpaceState

	// Cold-call prefixes: starts[i] is the start state of the loop
	// named names[i].
	starts []*machine.Capture
	names  []string
}

// MemBytes is the host memory the state retains: a warm prefix's sealed
// snapshot arrays and checkpointed address space, or a cold-call prefix's
// packed captures.
func (st *PrefixState) MemBytes() int64 { return st.mem }

// BuildPrefix simulates a prefix from scratch: dataset build and machine
// construction, then either every loop's cold-call start state, captured
// (a cold-call prefix), or the data distribution plus the warm-up calls,
// sealed with a snapshot and a space checkpoint (a warm prefix).
func BuildPrefix(ctx context.Context, spec PrefixSpec) (*PrefixState, error) {
	cfg, err := machineByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithProcs(spec.Procs)
	p := wave5.DefaultParams().Scaled(spec.Scale)
	key, err := prefixKeyOf(cfg, p, spec.WarmupCalls, spec.Distribute)
	if err != nil {
		return nil, err
	}
	w, err := wave5.Build(p)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &PrefixState{Spec: spec, Key: key, cfg: cfg, p: p}
	if !spec.Distribute {
		st.starts = make([]*machine.Capture, len(w.Loops))
		st.names = w.LoopNames()
		for i, l := range w.Loops {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cascade.ColdStart(m, l, true)
			if st.starts[i], err = m.Capture(); err != nil {
				return nil, err
			}
			st.mem += st.starts[i].MemBytes()
		}
		return st, nil
	}
	if err := runWarmPrefix(ctx, m, w, spec.WarmupCalls); err != nil {
		return nil, err
	}
	if st.snap, err = m.Snapshot(); err != nil {
		return nil, err
	}
	st.ck = w.Space.Checkpoint()
	st.mem = st.snap.MemBytes()
	for _, a := range w.Space.Arrays() {
		st.mem += int64(a.SizeBytes())
	}
	return st, nil
}

// fork gives a warm point its own machine and dataset at the prefix's
// end: a fork of the sealed snapshot, and a freshly built dataset
// holding the checkpointed values copy-on-write. Nothing the point
// writes reaches the state.
func (st *PrefixState) fork() (*machine.Machine, *wave5.PARMVR, error) {
	w, err := wave5.Build(st.p)
	if err != nil {
		return nil, nil, err
	}
	if err := w.Space.LoadState(st.ck); err != nil {
		return nil, nil, err
	}
	m, err := st.snap.Fork()
	if err != nil {
		return nil, nil, err
	}
	return m, w, nil
}

// PrefixCacheStats is a point-in-time summary of a PrefixCache.
type PrefixCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes, MaxBytes         int64
}

// PrefixCache is the worker's bounded prefix LRU: prefix key -> built
// PrefixState, capped by MemBytes. Concurrent requests for the same key
// single-flight the build; an evicted state stays usable by points
// already holding it (snapshots and captures are immutable), the cache
// merely drops its reference.
type PrefixCache struct {
	mu      sync.Mutex
	max     int64
	used    int64
	entries map[string]*prefixEntry
	order   []string // LRU order, least recent first
	stats   PrefixCacheStats

	// build simulates a missing prefix (BuildPrefix; tests substitute
	// instrumented builds).
	build func(context.Context, PrefixSpec) (*PrefixState, error)
}

// prefixEntry is one key's single-flight build. st and err are written
// once, under the cache's mu, before done closes.
type prefixEntry struct {
	done chan struct{}
	st   *PrefixState
	err  error
}

// DefaultPrefixCacheBytes is the default prefix-LRU ceiling: a few
// paper-scale prefixes (a PARMVR space is ~25 MB at scale 1.0; cache
// state is line records, well under 10 MB for an 8-proc R10000).
const DefaultPrefixCacheBytes = 256 << 20

// NewPrefixCache returns a cache bounded by maxBytes of estimated state
// (MemBytes); maxBytes <= 0 uses DefaultPrefixCacheBytes.
func NewPrefixCache(maxBytes int64) *PrefixCache {
	if maxBytes <= 0 {
		maxBytes = DefaultPrefixCacheBytes
	}
	return &PrefixCache{max: maxBytes, entries: map[string]*prefixEntry{}, build: BuildPrefix}
}

// Stats returns a snapshot of the cache's counters.
func (c *PrefixCache) Stats() PrefixCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes, s.MaxBytes = c.used, c.max
	return s
}

// state returns the built PrefixState for spec, building it on first use
// (single-flight per key) and recording the LRU touch. The build runs on
// its own goroutine under a context detached from every caller's
// cancellation, so a caller that gives up — its ctx cancelled or timed
// out — stops waiting with its own ctx error while the build finishes
// for the callers still waiting and for later ones.
func (c *PrefixCache) state(ctx context.Context, spec PrefixSpec) (*PrefixState, error) {
	cfg, err := machineByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	key, err := prefixKeyOf(cfg.WithProcs(spec.Procs), wave5.DefaultParams().Scaled(spec.Scale),
		spec.WarmupCalls, spec.Distribute)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &prefixEntry{done: make(chan struct{})}
		c.entries[key] = e
		c.stats.Misses++
		go c.fill(context.WithoutCancel(ctx), key, spec, e)
	} else {
		c.stats.Hits++
	}
	c.touch(key)
	c.mu.Unlock()

	select {
	case <-e.done:
		return e.st, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// fill builds one entry's state and publishes it: a built state is
// charged to the byte ceiling (unless the entry was evicted meanwhile), a
// failed build leaves the cache so the next request retries. A panicking
// build becomes the entry's error rather than killing the process.
func (c *PrefixCache) fill(ctx context.Context, key string, spec PrefixSpec, e *prefixEntry) {
	var st *PrefixState
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("prefix build panicked: %v\n%s", r, debug.Stack())
			}
		}()
		st, err = c.build(ctx, spec)
	}()
	c.mu.Lock()
	e.st, e.err = st, err
	if c.entries[key] == e {
		if err != nil {
			c.drop(key)
		} else {
			c.used += st.MemBytes()
			c.evictLocked(key)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// touch moves key to the most-recent end of the LRU order (appending it
// when new). Callers hold c.mu.
func (c *PrefixCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
	c.order = append(c.order, key)
}

// drop removes key from the map and order without byte accounting (used
// for failed builds, which never charged bytes). Callers hold c.mu.
func (c *PrefixCache) drop(key string) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops least-recently-used entries until the byte ceiling
// holds, never evicting keep (the entry just built). Callers hold c.mu.
func (c *PrefixCache) evictLocked(keep string) {
	for c.used > c.max && len(c.order) > 1 {
		victim := c.order[0]
		if victim == keep {
			if len(c.order) < 2 {
				return
			}
			victim = c.order[1]
		}
		if e := c.entries[victim]; e != nil && e.st != nil {
			c.used -= e.st.MemBytes()
		}
		c.drop(victim)
		c.stats.Evictions++
	}
}

// RunPoint executes one spec through the warm path when its
// decomposition declares a prefix for it: the prefix state is fetched
// from (or built into) the cache and the point runs its tail off it. ok
// is false when the point has no warm path — the caller falls back to
// the cold RunPoint. Points sharing a state run concurrently: RunWarm
// only reads it.
func (c *PrefixCache) RunPoint(ctx context.Context, ps PointSpec) (PointResult, bool, error) {
	d, reg := decompositions[ps.Experiment]
	if !reg || d.Prefix == nil || d.RunWarm == nil {
		return PointResult{}, false, nil
	}
	spec, ok := d.Prefix(ps)
	if !ok {
		return PointResult{}, false, nil
	}
	st, err := c.state(ctx, spec)
	if err != nil {
		return PointResult{}, true, err
	}
	res, err := d.RunWarm(ctx, st, ps)
	return res, true, err
}

// WarmRunnable reports whether an experiment's decomposition declares a
// warm path at all.
func WarmRunnable(experiment string) bool {
	d, ok := decompositions[experiment]
	return ok && d.Prefix != nil && d.RunWarm != nil
}

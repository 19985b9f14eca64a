package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/cascade"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/wave5"
)

// Prefix reuse. Sweep points overwhelmingly share strategy-independent
// work — the warm-up calls of a steady-state sweep, the prior-parallel
// start state of every loop of a cold call — and differ only in the tail
// (strategy, chunk size). A decomposition that declares its points'
// prefixes lets a worker, or RunDecomposed, simulate each distinct prefix
// once and park it in a bounded LRU as packed machine.Captures, loaded per
// point: one for a warm prefix, one per loop for a cold-call prefix.
// O(points x full-run) becomes O(prefixes x prefix + points x tail). A cached
// cold-call prefix also memoizes the PARMVR calls run off it (memoCall),
// so points of different sweeps that make the same call share one
// simulation; a server's cache lives as long as the process (Holder).
//
// A point runs off the same state whether a cache holds it or it is
// built privately for that point alone (runSpec): a decomposition has
// one Run, and a state is immutable once built. So a point's bytes do not
// depend on where it runs or on what ran before it; the equivalence tests
// in prefix_test.go and golden_test.go check it.

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
	// WarmupCalls sequential full-PARMVR calls run before the capture of
	// a warm prefix.
	WarmupCalls int `json:"warmup_calls"`
	// Distribute selects the prefix kind. True is a warm prefix: the
	// surrounding parallel phases distribute the whole dataset's lines
	// dirty across caches, the warm-up calls run, and the machine's caches
	// are captured. False is a cold-call prefix:
	// for every PARMVR loop, the state that loop of a cold call starts
	// from (caches reset, then the loop's own data distributed dirty by
	// the parallel section before it), held as a packed capture.
	Distribute bool `json:"distribute,omitempty"`
}

// PrefixState is a built prefix, immutable once built: any number of
// points run off one state concurrently, without a lock. A warm prefix
// holds the machine capture and the space checkpoint every point starts
// from; each point builds its own machine and dataset and loads both
// (machine.LoadCapture, memsim.Space.LoadState). A cold-call prefix holds
// one capture per loop, which points load into their own machines over
// their own datasets.
type PrefixState struct {
	Spec PrefixSpec
	Key  string

	cfg machine.Config
	p   wave5.Params
	mem int64

	// Warm prefixes. seq, when set, is the steady-state record: the
	// Sequential point's result, measured on the last warm-up call
	// (BuildPrefix), which every Sequential point off the state returns.
	warm *machine.Capture
	ck   *memsim.SpaceState
	seq  *PointResult

	// Cold-call prefixes: starts[i] is the start state of the loop
	// named names[i].
	starts []*machine.Capture
	names  []string

	// The PrefixCache that built the state and its key there; nil for a
	// private state. The cache's mu guards calls, the memo of PARMVR
	// calls run off the state (see memoCall), whose stored results hold
	// callMem bytes.
	cache    *PrefixCache
	cacheKey string
	calls    map[parmvrCall]*callFlight
	callMem  atomic.Int64
}

// MemBytes is the host memory the state retains: a warm prefix's packed
// capture, checkpointed address space and steady-state record, or a
// cold-call prefix's packed captures, plus the results its call memo
// stores.
func (st *PrefixState) MemBytes() int64 { return st.mem + st.callMem.Load() }

// parmvrCall names one PARMVR call off a cold-call prefix. The prefix
// fixes machine, processor count and scale, so a strategy, a chunk
// budget and an ablation configuration ("" for none) name the rest of
// the call.
type parmvrCall struct {
	strategy string
	chunkKB  int
	variant  string
}

// callFlight is one memoized call's single flight. res and err are
// written once, before done closes.
type callFlight struct {
	done chan struct{}
	res  PointResult
	err  error
}

// memoCall returns the outcome of call k off st, running run at most
// once per call for as long as st lives: concurrent callers wait on the
// first one's flight, and later ones get its stored result. A failed
// run is never stored, so the next caller runs it again, and so does a
// waiter with a live context whose flight failed on its runner's
// cancellation or deadline. A panicking run is not stored either: its
// waiters get the panic as their error, and the panic goes on up the
// runner's own stack. A private state memoizes nothing.
func (st *PrefixState) memoCall(ctx context.Context, k parmvrCall, run func() (PointResult, error)) (PointResult, error) {
	c := st.cache
	if c == nil {
		return run()
	}
	c.mu.Lock()
	for f, ok := st.calls[k]; ok; f, ok = st.calls[k] {
		c.stats.CallHits++
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return PointResult{}, ctx.Err()
		}
		// A flight cancelled or timed out by its runner's context says
		// nothing about a caller whose own context is live. The failed
		// flight has left the memo, so the caller runs the call again.
		if (!errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded)) || ctx.Err() != nil {
			return f.res, f.err
		}
		c.mu.Lock()
	}
	f := &callFlight{done: make(chan struct{})}
	if st.calls == nil {
		st.calls = map[parmvrCall]*callFlight{}
	}
	st.calls[k] = f
	c.stats.CallMisses++
	c.mu.Unlock()

	settled := false
	defer func() {
		if !settled {
			r := recover()
			f.err = fmt.Errorf("PARMVR call panicked: %v\n%s", r, debug.Stack())
			c.settle(st, k, f)
			panic(r)
		}
	}()
	f.res, f.err = run()
	settled = true
	c.settle(st, k, f)
	return f.res, f.err
}

// settle publishes a finished flight and wakes its waiters. A failed
// flight leaves the memo; a stored one is charged to the byte ceiling
// while st is still the cached state of its key.
func (c *PrefixCache) settle(st *PrefixState, k parmvrCall, f *callFlight) {
	c.mu.Lock()
	if f.err != nil {
		delete(st.calls, k)
	} else {
		n := f.res.memBytes()
		st.callMem.Add(n)
		if e := c.entries[st.cacheKey]; e != nil && e.st == st {
			c.used += n
			c.evictLocked(st.cacheKey)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// BuildPrefix simulates a prefix from scratch: dataset build and machine
// construction, then either every loop's cold-call start state, captured
// (a cold-call prefix), or the data distribution plus the warm-up calls,
// captured with a space checkpoint (a warm prefix). A warm prefix whose
// last warm-up call found the machine already in steady state also keeps
// that call's measurement as the Sequential point's result (seq).
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
	var before *machine.Capture
	var last PointResult
	if spec.WarmupCalls < 2 {
		err = runWarmPrefix(ctx, m, w, spec.WarmupCalls)
	} else if err = runWarmPrefix(ctx, m, w, spec.WarmupCalls-1); err == nil {
		before, last, err = runLastWarmupCall(ctx, m, w)
	}
	if err != nil {
		return nil, err
	}
	if st.warm, err = m.Capture(); err != nil {
		return nil, err
	}
	st.ck = w.Space.Checkpoint()
	st.mem = st.warm.MemBytes()
	for _, a := range w.Space.Arrays() {
		st.mem += int64(a.SizeBytes())
	}
	// A Sequential point would run the last warm-up call again when that
	// call left the machine as it found it (steady state) and the
	// addresses a call touches do not depend on the values earlier calls
	// wrote: keep its measurement instead.
	if before != nil && before.Equivalent(st.warm) && indexTablesReadOnly(w.Loops) {
		st.seq = &last
		st.mem += last.memBytes()
	}
	return st, nil
}

// runLastWarmupCall runs the next warm-up call on m as a Sequential
// point measures its call: from a capture of m loaded back, so that its
// statistics and untouched marks start as a fork's would. It returns the
// capture taken before the call and the call's point result.
func runLastWarmupCall(ctx context.Context, m *machine.Machine, w *wave5.PARMVR) (*machine.Capture, PointResult, error) {
	before, err := m.Capture()
	if err == nil {
		err = m.LoadCapture(before)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, PointResult{}, err
	}
	results, err := runWarmPoint(m, w, WarmPoint{Strat: Sequential})
	if err != nil {
		return nil, PointResult{}, err
	}
	return before, warmResult(m, results), nil
}

// indexTablesReadOnly reports whether no loop writes an array that any
// loop reads indices from, so that the addresses a call touches do not
// depend on the values an earlier call left behind.
func indexTablesReadOnly(loops []*loopir.Loop) bool {
	var tables, written []*memsim.Array
	for _, l := range loops {
		for _, r := range l.Refs() {
			if tbl, _ := r.Index.Table(0); tbl != nil {
				tables = append(tables, tbl)
			}
		}
		for _, r := range l.Writes {
			written = append(written, r.Array)
		}
	}
	for _, t := range tables {
		for _, a := range written {
			if t.Overlaps(a) {
				return false
			}
		}
	}
	return true
}

// fork gives a warm point its own machine and dataset at the prefix's
// end: a new machine with the capture loaded, and a freshly built dataset
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
	m, err := machine.New(st.cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.LoadCapture(st.warm); err != nil {
		return nil, nil, err
	}
	return m, w, nil
}

// PrefixCacheStats is a point-in-time summary of a PrefixCache. Hits
// and Misses count prefix lookups; CallHits and CallMisses count PARMVR
// calls served from, and run into, the cached states' call memos.
type PrefixCacheStats struct {
	Hits, Misses, Evictions int64
	CallHits, CallMisses    int64
	Entries                 int
	Bytes, MaxBytes         int64
}

// PrefixCache is a holder's bounded prefix LRU: prefix key -> built
// PrefixState, capped by MemBytes, which counts the states' call memos
// too. Concurrent requests for the same key single-flight the build; an
// evicted state stays usable by points already holding it (captures and
// space checkpoints are immutable), the cache merely drops its reference.
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
	if err == nil {
		st.cache, st.cacheKey = c, key
	}
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
// holds, never evicting keep (the entry just charged) or an entry whose
// build is still running: that entry holds no bytes yet, and dropping
// it would make the next request for its key build the prefix again.
// Callers hold c.mu.
func (c *PrefixCache) evictLocked(keep string) {
	for i := 0; c.used > c.max && i < len(c.order); {
		victim := c.order[i]
		e := c.entries[victim]
		if victim == keep || e.st == nil {
			i++
			continue
		}
		c.used -= e.st.MemBytes()
		c.drop(victim)
		c.stats.Evictions++
	}
}

// RunPoint executes one spec off the state of its declared prefix,
// fetched from (or built into) the cache. ok is false, and nothing runs,
// when the point declares no prefix. Points sharing a state run
// concurrently: a decomposition's Run only reads it.
func (c *PrefixCache) RunPoint(ctx context.Context, ps PointSpec) (PointResult, bool, error) {
	if _, ok := prefixOf(ps); !ok {
		return PointResult{}, false, nil
	}
	return runSpec(ctx, c, ps)
}

// Run executes any spec: off the state of its declared prefix in the
// cache, as RunPoint does, or, for a point with no prefix, on its own.
// warm reports whether the point declared a prefix.
func (c *PrefixCache) Run(ctx context.Context, ps PointSpec) (res PointResult, warm bool, err error) {
	return runSpec(ctx, c, ps)
}

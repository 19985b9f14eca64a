package experiments

import (
	"context"
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/cascade"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/metrics"
)

// Point-level decomposition of the experiments. Every experiment is
// split into an ordered list of independent simulation points — each
// fully described by a serializable PointSpec — run anywhere (another
// goroutine, another process, another node), and reassembled by a merge
// step into the experiment's Renderable. RunDecomposed is the
// single-node driver; the fabric runs the same three phases across
// processes. The contract the fabric's byte-identity guarantee rests on:
//
//   - Points(rc) is deterministic: same RunConfig, same specs, same order.
//   - Run(ctx, spec) depends only on the spec (every knob that influences
//     the simulation is a spec field), so a point computes the same
//     result on every node — and content-addressing point results by the
//     canonical hash of the spec is sound.
//   - Merge(rc, results) consumes index-ordered results and performs the
//     same arithmetic wherever it runs, so the merged result's canonical
//     JSON is byte-identical to a single-node run's.
//
// The golden tests in golden_test.go pin the merged bytes of every
// experiment against hashes recorded from the whole-experiment drivers
// the decompositions replaced, through RunDecomposed, the registry, the
// warm path with a JSON round-trip of every spec and PointResult, and
// (fig2, fig6) the reference engine.

// PointSpec fully describes one simulation point of a decomposed sweep.
// Every field that can influence the simulated result is here; the spec
// is the unit of work the fabric ships between processes and the input
// to the point's content-addressed cache key.
type PointSpec struct {
	// Experiment names the decomposition that produced (and can run) this
	// spec.
	Experiment string `json:"experiment"`
	// Index is the spec's position in the decomposition's point order.
	// Merge receives results sorted by it.
	Index int `json:"index"`
	// Machine is the machine preset name (see machine.Presets).
	Machine string `json:"machine"`
	// Procs overrides the preset's processor count.
	Procs int `json:"procs"`
	// Strategy is the execution strategy token (see Strategy.Token).
	Strategy string `json:"strategy"`
	// ChunkKB is the cascade chunk budget in KB.
	ChunkKB int `json:"chunk_kb"`
	// Scale is the PARMVR dataset scale factor.
	Scale float64 `json:"scale"`
	// N is the synthetic-loop / kernel array length (0 when unused).
	N int `json:"n,omitempty"`
	// ChunkBytes is the exact chunk budget in bytes for decompositions
	// whose budgets are not KB-quantized (warmsweep); 0 means ChunkKB
	// rules. Omitted from the canonical form when unused, so the fields'
	// addition left every existing point key unchanged.
	ChunkBytes int `json:"chunk_bytes,omitempty"`
	// Warmup is the number of sequential warm-up calls the point's shared
	// prefix runs before the measured call (warmsweep); 0 for cold sweeps.
	Warmup int `json:"warmup,omitempty"`
	// Variant names the workload or configuration of an experiment that
	// has several: fig7's synthetic loop, gallery's kernel, an ablation
	// row's configuration. Omitted when empty, like ChunkBytes and Warmup.
	Variant string `json:"variant,omitempty"`
}

// Validate checks the field ranges every decomposition's specs hold: a
// non-negative index, a known machine preset, at least one processor, an
// empty or known strategy token, a chunk budget for a cascaded strategy,
// and no negative scale, chunk budget, array length or warm-up count. A
// worker refuses a spec that fails it before the spec takes an execution
// slot.
func (ps PointSpec) Validate() error {
	if ps.Index < 0 {
		return fmt.Errorf("point spec: index %d (want >= 0)", ps.Index)
	}
	if _, err := machineByName(ps.Machine); err != nil {
		return fmt.Errorf("point spec: %w", err)
	}
	if ps.Procs < 1 {
		return fmt.Errorf("point spec: procs %d (want >= 1)", ps.Procs)
	}
	if ps.Strategy != "" {
		strat, err := ParseStrategy(ps.Strategy)
		if err != nil {
			return fmt.Errorf("point spec: %w", err)
		}
		if strat != Sequential && ps.ChunkKB <= 0 && ps.ChunkBytes <= 0 {
			return fmt.Errorf("point spec: %s strategy with no chunk budget (chunk_kb %d, chunk_bytes %d)", ps.Strategy, ps.ChunkKB, ps.ChunkBytes)
		}
	}
	if !(ps.Scale >= 0) {
		return fmt.Errorf("point spec: scale %g (want >= 0)", ps.Scale)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"chunk_kb", ps.ChunkKB}, {"chunk_bytes", ps.ChunkBytes}, {"n", ps.N}, {"warmup", ps.Warmup}} {
		if f.v < 0 {
			return fmt.Errorf("point spec: %s %d (want >= 0)", f.name, f.v)
		}
	}
	return nil
}

// PointResult is the serializable outcome of running one PointSpec: the
// raw measurements merges need, never derived ratios — speedups are
// computed at merge time, with the arithmetic of the whole-experiment
// drivers the merges replaced, so distribution cannot perturb a single
// bit.
type PointResult struct {
	Index       int              `json:"index"`
	Cycles      int64            `json:"cycles"`
	HelperIters int64            `json:"helper_iters,omitempty"`
	TotalIters  int64            `json:"total_iters,omitempty"`
	Chunks      int              `json:"chunks,omitempty"`
	Metrics     metrics.Snapshot `json:"metrics,omitempty"`
	// Shared counts the machine components a warm-started point's
	// measured call never accessed since the prefix capture was loaded
	// (warmsweep rows report it; cold sweeps omit it).
	Shared int `json:"shared_components,omitempty"`
	// Loops holds one entry per PARMVR loop for the merges that report
	// per loop (fig3-5, conflicts); whole-call sweeps omit it.
	Loops []LoopResult `json:"loops,omitempty"`
	// Parts holds the raw measurements of a point that measures several
	// runs of one workload, in the order its merge reads them: gallery's
	// and quickstart's three strategies, amdahl's parallel phase and
	// unparallelized loops. Single-run points omit it.
	Parts []PointResult `json:"parts,omitempty"`
}

// LoopResult is one loop's raw measurements within a point: its cycles
// and the misses its execution phases observed at each cache level.
type LoopResult struct {
	Loop   string     `json:"loop"`
	Cycles int64      `json:"cycles"`
	L1     LoopMisses `json:"l1"`
	L2     LoopMisses `json:"l2"`
}

// LoopMisses is one cache level's miss count, with its classification
// when the run classified misses (conflicts).
type LoopMisses struct {
	Misses     int64 `json:"misses"`
	Compulsory int64 `json:"compulsory,omitempty"`
	Capacity   int64 `json:"capacity,omitempty"`
	Conflict   int64 `json:"conflict,omitempty"`
}

// memBytes estimates the host memory a stored result holds: the struct,
// each metric's name and value with its map slot, and each per-loop row
// with its name.
func (r PointResult) memBytes() int64 {
	const mapSlot = 16 // bucket share of one map entry: tophash, overflow, load factor
	n := int64(unsafe.Sizeof(r))
	for name := range r.Metrics {
		n += int64(unsafe.Sizeof(name)+unsafe.Sizeof(int64(0))) + mapSlot + int64(len(name))
	}
	for _, l := range r.Loops {
		n += int64(unsafe.Sizeof(l)) + int64(len(l.Loop))
	}
	for _, p := range r.Parts {
		n += p.memBytes()
	}
	return n
}

// loopResults pairs each loop's name with its measurements.
func loopResults(names []string, rr []cascade.Result) []LoopResult {
	misses := func(s cache.Stats) LoopMisses {
		return LoopMisses{Misses: s.Misses, Compulsory: s.Compulsory, Capacity: s.Capacity, Conflict: s.Conflict}
	}
	out := make([]LoopResult, len(rr))
	for i, r := range rr {
		out[i] = LoopResult{Loop: names[i], Cycles: r.Cycles, L1: misses(r.ExecL1), L2: misses(r.ExecL2)}
	}
	return out
}

// Decomposition is an experiment's driver split into its three
// distributable phases. Points and Merge run on the coordinating side; Run executes
// anywhere.
//
// The optional warm-prefix pair declares the strategy-independent work a
// point shares with its sweep siblings. Prefix maps a spec to its
// resolved PrefixSpec (ok=false for points with no shareable prefix);
// RunWarm executes the point's tail off a built PrefixState, and MUST
// produce byte-identical results to Run — the worker substitutes it
// freely whenever a cached prefix is at hand. RunWarm is called
// concurrently on one state and must only read it.
type Decomposition struct {
	Points func(rc RunConfig) []PointSpec
	Run    func(ctx context.Context, ps PointSpec) (PointResult, error)
	Merge  func(rc RunConfig, results []PointResult) (Renderable, error)

	Prefix  func(ps PointSpec) (PrefixSpec, bool)
	RunWarm func(ctx context.Context, st *PrefixState, ps PointSpec) (PointResult, error)
}

// decompositions maps experiment name → decomposition. The built-ins
// register in init; tests may add synthetic sweeps via
// RegisterDecomposition.
var decompositions = map[string]Decomposition{}

// RegisterDecomposition adds (or replaces) a named decomposition. The
// built-in experiments register themselves; tests register cheap
// synthetic sweeps to exercise the fabric without paper-scale
// simulations. Decomposed makes an Experiment of one. Both
// sides of a distributed run must register the same name: the process
// that decomposes and merges, and the process that runs points.
func RegisterDecomposition(name string, d Decomposition) {
	decompositions[name] = d
}

// DecomposableExperiments returns the names with a registered
// decomposition, sorted.
func DecomposableExperiments() []string {
	names := make([]string, 0, len(decompositions))
	for n := range decompositions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Decomposable reports whether an experiment has a registered
// decomposition: whether this build can run it, or a point of it.
func Decomposable(name string) bool {
	_, ok := decompositions[name]
	return ok
}

// Decompose returns the ordered point plan for an experiment, or false
// when the experiment has no registered decomposition.
func Decompose(experiment string, rc RunConfig) ([]PointSpec, bool) {
	d, ok := decompositions[experiment]
	if !ok {
		return nil, false
	}
	return d.Points(rc), true
}

// RunPoint executes one spec, dispatching on its Experiment field.
func RunPoint(ctx context.Context, ps PointSpec) (PointResult, error) {
	d, ok := decompositions[ps.Experiment]
	if !ok {
		return PointResult{}, fmt.Errorf("experiment %q has no point decomposition", ps.Experiment)
	}
	return d.Run(ctx, ps)
}

// MergePoints assembles an experiment's result from its complete point
// results. Results may arrive in any order; they are sorted by Index
// before the merge.
func MergePoints(experiment string, rc RunConfig, results []PointResult) (Renderable, error) {
	d, ok := decompositions[experiment]
	if !ok {
		return nil, fmt.Errorf("experiment %q has no point decomposition", experiment)
	}
	sorted := make([]PointResult, len(results))
	copy(sorted, results)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i, r := range sorted {
		if r.Index != i {
			return nil, fmt.Errorf("merge %s: incomplete results (missing index %d)", experiment, i)
		}
	}
	return d.Merge(rc, sorted)
}

// RunDecomposed runs an experiment locally — decompose, run every point
// through the experiment pool, merge — reporting point
// progress through the context (see WithPointProgress). It returns
// ok=false when the experiment has no decomposition. Points with a warm
// path run it over the PrefixCache of ctx's Holder (see WithHolder), or
// else over one the sweep owns, so each prefix group is built once per
// holder or per sweep, exactly as on a -warm-prefixes worker. The pool
// takes its points from a PointQueue, as the fleet does, so a lane runs
// a point of a built prefix or starts a new one before it waits on
// another lane's build. This is
// the single-node twin of the fabric's distributed path and the only
// local driver of every experiment: both funnel through the same
// Run, RunWarm and Merge, which is what makes "byte-identical to a
// single-node run" a testable statement rather than a hope.
func RunDecomposed(ctx context.Context, experiment string, rc RunConfig) (Renderable, bool, error) {
	d, ok := decompositions[experiment]
	if !ok {
		return nil, false, nil
	}
	specs := d.Points(rc)
	prefixes := NewPrefixCache(0)
	if h := holderOf(ctx); h != nil {
		prefixes = h.prefixes
	}
	results := make([]PointResult, len(specs))
	if err := runPool(ctx, len(specs), NewPointQueue(specs), func(i int) error {
		r, warm, err := prefixes.RunPoint(ctx, specs[i])
		if !warm {
			r, err = d.Run(ctx, specs[i])
		}
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, true, err
	}
	r, err := d.Merge(rc, results)
	return r, true, err
}

// machineByName resolves a preset name against Machines(), so a point
// run on any node sees the same configuration — including the
// host-parallel knob — as a local sweep would.
func machineByName(name string) (machine.Config, error) {
	for _, cfg := range Machines() {
		if cfg.Name == name {
			return cfg, nil
		}
	}
	return machine.Config{}, fmt.Errorf("unknown machine preset %q", name)
}

// Token returns the strategy's spec token — lowercase, stable, part of
// the point-key derivation (unlike String, which is a display label).
func (s Strategy) Token() string {
	switch s {
	case Sequential:
		return "sequential"
	case Prefetched:
		return "prefetched"
	case Restructured:
		return "restructured"
	default:
		return fmt.Sprintf("strategy-%d", int(s))
	}
}

// ParseStrategy inverts Token.
func ParseStrategy(tok string) (Strategy, error) {
	for _, s := range Strategies {
		if s.Token() == tok {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy token %q", tok)
}

// parmvrResult reduces a PARMVR call's per-loop results to the raw
// measurements every PARMVR merge consumes.
func parmvrResult(index int, rr []cascade.Result) PointResult {
	res := PointResult{Index: index, Cycles: TotalCycles(rr), Metrics: MergeMetrics(rr)}
	for _, r := range rr {
		res.HelperIters += int64(r.HelperIters)
		res.TotalIters += int64(r.TotalIters)
	}
	return res
}

// parmvrPrefix declares a fig2-fig6 point's shared prefix: the
// cold-call prefix of its (machine, procs, scale), holding every loop's
// prior-parallel start state — the strategy-independent part of
// RunPARMVR. Fig6 and fig3-5 points share one prefix per machine (4
// procs, fixed scale); fig2's processor sweep gets one per (machine,
// procs).
func parmvrPrefix(ps PointSpec) (PrefixSpec, bool) {
	return PrefixSpec{Machine: ps.Machine, Procs: ps.Procs, Scale: ps.Scale}, true
}

// coldRun makes a decomposition's cold path out of its warm path: the
// warm path off a private, freshly built prefix, so warm and cold are
// byte-identical by construction.
func coldRun(prefix func(PointSpec) (PrefixSpec, bool),
	warm func(context.Context, *PrefixState, PointSpec) (PointResult, error)) func(context.Context, PointSpec) (PointResult, error) {
	return func(ctx context.Context, ps PointSpec) (PointResult, error) {
		spec, _ := prefix(ps)
		st, err := BuildPrefix(ctx, spec)
		if err != nil {
			return PointResult{}, err
		}
		return warm(ctx, st, ps)
	}
}

// runPARMVRWarm runs a point's PARMVR call off a cold-call prefix:
// RunPARMVR on the point's own machine and dataset, with each loop's
// prior-parallel distribution loaded from the prefix's capture instead
// of simulated. The state is only read, so points sharing it run
// concurrently.
func runPARMVRWarm(st *PrefixState, ps PointSpec) ([]cascade.Result, error) {
	strat, err := ParseStrategy(ps.Strategy)
	if err != nil {
		return nil, err
	}
	extra, err := ablationOptions(ps.Variant, st.cfg.Procs)
	if err != nil {
		return nil, err
	}
	return runPARMVR(st.cfg, st.p, strat, ps.ChunkKB*1024, func(m *machine.Machine, i int, _ *loopir.Loop) error {
		return m.LoadCapture(st.starts[i])
	}, extra)
}

// runPARMVRCall is a point's PARMVR call off a cold-call prefix,
// memoized on the state: fig2, fig6 and ablation points and fig3-5
// points that agree on strategy, chunk budget and ablation
// configuration share one simulation. The result
// holds the call's raw measurements and its per-loop rows; the caller
// sets the index and keeps what its merge reads.
func runPARMVRCall(ctx context.Context, st *PrefixState, ps PointSpec) (PointResult, error) {
	return st.memoCall(ctx, parmvrCall{ps.Strategy, ps.ChunkKB, ps.Variant}, func() (PointResult, error) {
		rr, err := runPARMVRWarm(st, ps)
		if err != nil {
			return PointResult{}, err
		}
		res := parmvrResult(0, rr)
		res.Loops = loopResults(st.names, rr)
		return res, nil
	})
}

// runPARMVRPointWarm is a fig2/fig6 point's warm path: the whole call's
// raw measurements.
func runPARMVRPointWarm(ctx context.Context, st *PrefixState, ps PointSpec) (PointResult, error) {
	res, err := runPARMVRCall(ctx, st, ps)
	if err != nil {
		return PointResult{}, err
	}
	res.Index, res.Loops = ps.Index, nil
	return res, nil
}

func init() {
	RegisterDecomposition("fig2", Decomposition{
		Points:  fig2Points,
		Run:     coldRun(parmvrPrefix, runPARMVRPointWarm),
		Merge:   fig2Merge,
		Prefix:  parmvrPrefix,
		RunWarm: runPARMVRPointWarm,
	})
	RegisterDecomposition("fig6", Decomposition{
		Points:  fig6Points,
		Run:     coldRun(parmvrPrefix, runPARMVRPointWarm),
		Merge:   fig6Merge,
		Prefix:  parmvrPrefix,
		RunWarm: runPARMVRPointWarm,
	})
}

// fig2Points mirrors Fig2's spec construction exactly: one sequential
// baseline per machine at the preset's full processor count, then the
// (machine × procs × strategy) sweep in the driver's loop order.
func fig2Points(rc RunConfig) []PointSpec {
	chunkKB := rc.ChunkBytes / 1024
	var specs []PointSpec
	for _, cfg := range Machines() {
		specs = append(specs, PointSpec{
			Experiment: "fig2", Index: len(specs), Machine: cfg.Name, Procs: cfg.Procs,
			Strategy: Sequential.Token(), ChunkKB: chunkKB, Scale: rc.Scale,
		})
	}
	for _, cfg := range Machines() {
		for _, procs := range procSweep(cfg) {
			for _, strat := range []Strategy{Prefetched, Restructured} {
				specs = append(specs, PointSpec{
					Experiment: "fig2", Index: len(specs), Machine: cfg.Name, Procs: procs,
					Strategy: strat.Token(), ChunkKB: chunkKB, Scale: rc.Scale,
				})
			}
		}
	}
	return specs
}

// fig2Merge rebuilds Fig2Result with the driver's exact arithmetic:
// Speedup = baseline cycles / point cycles, HelperCompletion =
// helper/total iterations — the same integer inputs, the same float64
// divisions, the same bytes.
func fig2Merge(rc RunConfig, results []PointResult) (Renderable, error) {
	machines := Machines()
	if len(results) != len(fig2Points(rc)) {
		return nil, fmt.Errorf("fig2 merge: %d results, want %d", len(results), len(fig2Points(rc)))
	}
	res := &Fig2Result{
		Params:     rc.Params(),
		ChunkBytes: rc.ChunkBytes,
		Baselines:  make(map[string]int64),
	}
	bases := make(map[string]int64, len(machines))
	for i, cfg := range machines {
		bases[cfg.Name] = results[i].Cycles
		res.Baselines[cfg.Name] = results[i].Cycles
	}
	k := len(machines)
	for _, cfg := range machines {
		for _, procs := range procSweep(cfg) {
			for _, strat := range []Strategy{Prefetched, Restructured} {
				r := results[k]
				k++
				res.Points = append(res.Points, Fig2Point{
					Machine:          cfg.Name,
					Strategy:         strat,
					Procs:            procs,
					Speedup:          float64(bases[cfg.Name]) / float64(r.Cycles),
					HelperCompletion: float64(r.HelperIters) / float64(r.TotalIters),
					Metrics:          r.Metrics,
				})
			}
		}
	}
	return res, nil
}

// studyProcs is the processor count of Figures 3 to 6. Because fig3-5
// and fig6 points agree on it, they share one cold-call prefix per
// machine (parmvrPrefix).
const studyProcs = 4

// fig6Points mirrors Fig6: one 4-processor sequential baseline per
// machine at the driver's fixed 64KB chunk parameter, then the
// (machine × chunk size × strategy) sweep in loop order.
func fig6Points(rc RunConfig) []PointSpec {
	var specs []PointSpec
	for _, cfg := range Machines() {
		specs = append(specs, PointSpec{
			Experiment: "fig6", Index: len(specs), Machine: cfg.Name, Procs: studyProcs,
			Strategy: Sequential.Token(), ChunkKB: 64, Scale: rc.Scale,
		})
	}
	for _, cfg := range Machines() {
		for _, kb := range Fig6ChunkSizesKB {
			for _, strat := range []Strategy{Prefetched, Restructured} {
				specs = append(specs, PointSpec{
					Experiment: "fig6", Index: len(specs), Machine: cfg.Name, Procs: studyProcs,
					Strategy: strat.Token(), ChunkKB: kb, Scale: rc.Scale,
				})
			}
		}
	}
	return specs
}

// fig6Merge rebuilds Fig6Result from baseline and sweep measurements.
func fig6Merge(rc RunConfig, results []PointResult) (Renderable, error) {
	machines := Machines()
	if len(results) != len(fig6Points(rc)) {
		return nil, fmt.Errorf("fig6 merge: %d results, want %d", len(results), len(fig6Points(rc)))
	}
	res := &Fig6Result{Params: rc.Params(), Procs: studyProcs}
	bases := make(map[string]int64, len(machines))
	for i, cfg := range machines {
		bases[cfg.Name] = results[i].Cycles
	}
	k := len(machines)
	for _, cfg := range machines {
		for _, kb := range Fig6ChunkSizesKB {
			for _, strat := range []Strategy{Prefetched, Restructured} {
				r := results[k]
				k++
				res.Points = append(res.Points, Fig6Point{
					Machine:    cfg.Name,
					Strategy:   strat,
					ChunkBytes: kb * 1024,
					Speedup:    float64(bases[cfg.Name]) / float64(r.Cycles),
					Metrics:    r.Metrics,
				})
			}
		}
	}
	return res, nil
}

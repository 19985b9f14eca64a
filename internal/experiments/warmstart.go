package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/canon"
	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/wave5"
)

// WarmPoint is one point of a warm-started sweep: a strategy and (for the
// cascaded strategies) a chunk budget, measured from the sweep's shared
// warm prefix. Sequential points ignore ChunkBytes.
type WarmPoint struct {
	Strat      Strategy `json:"strategy"`
	ChunkBytes int      `json:"chunk_bytes,omitempty"`
}

// DefaultWarmupCalls is the number of sequential full-PARMVR warm-up
// calls the warm sweep's shared prefix runs: enough for the grid arrays
// to reach their steady L2 residency, cheap enough to amortize.
const DefaultWarmupCalls = 2

// DefaultWarmPoints returns the default warm-sweep point set: every
// strategy at the configured chunk budget, plus a quarter-budget variant
// of each cascaded strategy so the sweep exercises chunk-size divergence
// off one prefix.
func DefaultWarmPoints(chunkBytes int) []WarmPoint {
	small := chunkBytes / 4
	if small < 4096 {
		small = 4096
	}
	return []WarmPoint{
		{Strat: Sequential},
		{Strat: Prefetched, ChunkBytes: chunkBytes},
		{Strat: Prefetched, ChunkBytes: small},
		{Strat: Restructured, ChunkBytes: chunkBytes},
		{Strat: Restructured, ChunkBytes: small},
	}
}

// WarmRow is one measured point of a warm-started sweep.
type WarmRow struct {
	Point WarmPoint `json:"point"`
	// Cycles is the simulated cost of the measured steady-state call.
	Cycles int64 `json:"cycles"`
	// Speedup is relative to the sweep's Sequential point (0 when the
	// point set has none).
	Speedup float64 `json:"speedup,omitempty"`
	// Shared counts the machine components the measured call never
	// accessed since the prefix capture was loaded: processors' L1, L2,
	// TLB and victim buffer the call left alone.
	Shared int `json:"shared_components"`
	// Metrics is the registry snapshot of the measured call (a tail
	// delta: statistics reset when the measured call starts).
	Metrics metrics.Snapshot `json:"metrics"`
}

// WarmSweepResult is a warm-started strategy/chunk sweep on one machine:
// every row started from the same capture taken after the shared
// sequential warm-up prefix, so the prefix simulated once no matter how
// many points the sweep has.
type WarmSweepResult struct {
	Machine     string    `json:"machine"`
	Procs       int       `json:"procs"`
	WarmupCalls int       `json:"warmup_calls"`
	PrefixKey   string    `json:"prefix_key"`
	Rows        []WarmRow `json:"rows"`
}

// prefixDesc is the resolved warm-prefix descriptor canon.PrefixKey
// hashes: the machine configuration's canonical bytes, the dataset
// parameters, the warm-up call count, and whether the prefix models the
// surrounding parallel phases' data distribution.
type prefixDesc struct {
	Config      string       `json:"config"`
	Params      wave5.Params `json:"params"`
	WarmupCalls int          `json:"warmup_calls"`
	Distribute  bool         `json:"distribute,omitempty"`
}

// prefixKeyOf content-addresses a resolved warm prefix under
// canon.PrefixSchema.
func prefixKeyOf(cfg machine.Config, p wave5.Params, warmupCalls int, distribute bool) (string, error) {
	cb, err := cfg.CanonicalBytes()
	if err != nil {
		return "", fmt.Errorf("prefix key: machine config: %w", err)
	}
	return canon.PrefixKey(prefixDesc{
		Config: string(cb), Params: p,
		WarmupCalls: warmupCalls, Distribute: distribute,
	})
}

// PrefixKey content-addresses a warm-sweep prefix: the machine
// configuration, the dataset parameters, and the warm-up call count
// (distribution included — a warm sweep always models the surrounding
// parallel phases). Two sweeps with equal prefix keys may share one
// capture — the prefix is strategy-independent (sequential calls), so
// every tail is reachable from it.
func PrefixKey(cfg machine.Config, p wave5.Params, warmupCalls int) (string, error) {
	return prefixKeyOf(cfg, p, warmupCalls, true)
}

// warmsweepPoints decomposes the warm sweep: per machine, every default
// warm point in row order. The spec carries the exact chunk budget in
// bytes (warm budgets are not KB-quantized) and the prefix's warm-up
// call count.
func warmsweepPoints(rc RunConfig) []PointSpec {
	var specs []PointSpec
	for _, cfg := range Machines() {
		for _, pt := range DefaultWarmPoints(rc.ChunkBytes) {
			specs = append(specs, PointSpec{
				Experiment: "warmsweep", Index: len(specs),
				Machine: cfg.Name, Procs: cfg.Procs,
				Strategy: pt.Strat.Token(), ChunkBytes: pt.ChunkBytes,
				Scale: rc.Scale, Warmup: DefaultWarmupCalls,
			})
		}
	}
	return specs
}

// warmsweepPrefix declares a warm point's shared prefix: dataset build,
// machine construction, data distribution, and the warm-up calls — the
// most prefix-heavy decomposition in the registry, which is exactly why
// worker-side prefix reuse pays here. The warm-up calls are sequential
// deliberately: they touch the same arrays every strategy's call does,
// so one prefix serves strategy and chunk-size divergence alike.
func warmsweepPrefix(ps PointSpec) (PrefixSpec, bool) {
	return PrefixSpec{
		Machine: ps.Machine, Procs: ps.Procs, Scale: ps.Scale,
		WarmupCalls: ps.Warmup, Distribute: true,
	}, true
}

// warmsweepRunWarm measures one warm point off a built prefix: load the
// capture into a private machine over a private dataset holding the
// checkpointed values, run the steady-state call, count the components
// it never accessed. Each point
// has its own machine and dataset, so the points of one prefix run
// concurrently.
func warmsweepRunWarm(_ context.Context, st *PrefixState, ps PointSpec) (PointResult, error) {
	strat, err := ParseStrategy(ps.Strategy)
	if err != nil {
		return PointResult{}, err
	}
	m, w, err := st.fork()
	if err != nil {
		return PointResult{}, err
	}
	results, err := runWarmPoint(m, w, WarmPoint{Strat: strat, ChunkBytes: ps.ChunkBytes})
	if err != nil {
		return PointResult{}, err
	}
	return PointResult{
		Index: ps.Index, Cycles: TotalCycles(results),
		Metrics: MergeMetrics(results), Shared: len(m.UntouchedComponents()),
	}, nil
}

// warmsweepMerge rebuilds the Group of per-machine WarmSweepResults:
// rows in point order, Speedup from the first sequential row's cycles.
func warmsweepMerge(rc RunConfig, results []PointResult) (Renderable, error) {
	machines := Machines()
	points := DefaultWarmPoints(rc.ChunkBytes)
	if len(results) != len(machines)*len(points) {
		return nil, fmt.Errorf("warmsweep merge: %d results, want %d", len(results), len(machines)*len(points))
	}
	var g Group
	k := 0
	for _, cfg := range machines {
		key, err := PrefixKey(cfg, rc.Params(), DefaultWarmupCalls)
		if err != nil {
			return nil, err
		}
		res := &WarmSweepResult{
			Machine: cfg.Name, Procs: cfg.Procs,
			WarmupCalls: DefaultWarmupCalls, PrefixKey: key,
		}
		var base int64
		for _, pt := range points {
			r := results[k]
			k++
			if pt.Strat == Sequential && base == 0 {
				base = r.Cycles
			}
			res.Rows = append(res.Rows, WarmRow{
				Point: pt, Cycles: r.Cycles, Shared: r.Shared, Metrics: r.Metrics,
			})
		}
		if base > 0 {
			for i := range res.Rows {
				res.Rows[i].Speedup = float64(base) / float64(res.Rows[i].Cycles)
			}
		}
		g = append(g, res)
	}
	return g, nil
}

func init() {
	RegisterDecomposition("warmsweep", Decomposition{
		Points:  warmsweepPoints,
		Run:     coldRun(warmsweepPrefix, warmsweepRunWarm),
		Merge:   warmsweepMerge,
		Prefix:  warmsweepPrefix,
		RunWarm: warmsweepRunWarm,
	})
}

// runWarmPrefix simulates a sweep's shared prefix on m: the parallel
// phases around the calls distribute the data dirty across caches, then
// the warm-up calls run sequentially.
func runWarmPrefix(ctx context.Context, m *machine.Machine, w *wave5.PARMVR, warmupCalls int) error {
	distributeDataset(m, w)
	for c := 0; c < warmupCalls; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, l := range w.Loops {
			cascade.RunSequentialWarm(m, l)
		}
	}
	return nil
}

// distributeDataset spreads every PARMVR loop's data dirty across m's
// caches, as the parallel phases around a call leave it.
func distributeDataset(m *machine.Machine, w *wave5.PARMVR) {
	var ranges []machine.AddrRange
	for _, l := range w.Loops {
		for _, ar := range l.AddrRanges() {
			ranges = append(ranges, machine.AddrRange{Base: ar.Base, Bytes: ar.Bytes})
		}
	}
	m.DistributeLines(ranges)
}

// runWarmPoint runs one steady-state full-PARMVR call on m as its caches
// stand.
func runWarmPoint(m *machine.Machine, w *wave5.PARMVR, pt WarmPoint) ([]cascade.Result, error) {
	results := make([]cascade.Result, 0, len(w.Loops))
	for _, l := range w.Loops {
		r, err := runPARMVRLoop(m, w.Space, l, pt.Strat, pt.ChunkBytes)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Render writes the sweep as an aligned table.
func (r *WarmSweepResult) Render(w io.Writer) {
	t := report.NewTable(
		fmt.Sprintf("Warm-start sweep — %s, %d procs. %d sequential warm-up calls simulated once, every point forked (prefix %s...)",
			r.Machine, r.Procs, r.WarmupCalls, r.PrefixKey[:12]),
		"Strategy", "Chunk", "Cycles", "Speedup", "Shared comps")
	for _, row := range r.Rows {
		chunk := "-"
		if row.Point.ChunkBytes > 0 {
			chunk = report.KB(row.Point.ChunkBytes)
		}
		t.Addf(row.Point.Strat.String(), chunk, report.Int(row.Cycles), row.Speedup, row.Shared)
	}
	t.Render(w)
}

// Package experiments contains one driver per table and figure of the
// paper's evaluation (§3). Each driver runs the relevant workloads on the
// simulated machines and produces the same rows or series the paper
// reports; renderers emit aligned text or CSV. The cmd/cascade-sim CLI
// and the repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/wave5"
)

// Strategy identifies an execution strategy of the evaluation.
type Strategy int

const (
	// Sequential is the original single-processor execution (Figure 1a).
	Sequential Strategy = iota
	// Prefetched is cascaded execution with the prefetch helper.
	Prefetched
	// Restructured is cascaded execution with the data-restructuring
	// helper (sequential buffer).
	Restructured
)

// Strategies lists the three strategies in presentation order.
var Strategies = []Strategy{Sequential, Prefetched, Restructured}

// String implements fmt.Stringer, matching the paper's legend labels.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "Original Sequential"
	case Prefetched:
		return "Prefetched"
	case Restructured:
		return "Restructured"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// MarshalJSON renders the strategy as its legend label, so exported
// experiment results are self-describing.
func (s Strategy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// helper converts a cascaded Strategy to cascade.Helper.
func (s Strategy) helper() cascade.Helper {
	if s == Restructured {
		return cascade.HelperRestructure
	}
	return cascade.HelperPrefetch
}

// RunPARMVR executes the fifteen PARMVR loops in order on a fresh machine
// and freshly built workload, under the given strategy, returning one
// result per loop. Chunked strategies use chunkBytes chunks with the
// paper's jump-out refinement; the prior parallel section is modelled for
// every strategy.
func RunPARMVR(cfg machine.Config, p wave5.Params, strat Strategy, chunkBytes int) ([]cascade.Result, error) {
	return runPARMVR(cfg, p, strat, chunkBytes, coldStart(true), nil)
}

// coldStart is the start state of a cold call's loops: caches reset,
// then, with prior, the loop's data distributed by the parallel section
// before it.
func coldStart(prior bool) func(m *machine.Machine, i int, l *loopir.Loop) error {
	return func(m *machine.Machine, _ int, l *loopir.Loop) error {
		cascade.ColdStart(m, l, prior)
		return nil
	}
}

// runPARMVR runs one PARMVR call on a fresh machine and a private,
// freshly built dataset. Before loop i runs, start puts the loop's start
// state in place: a cold call's prior-parallel distribution, simulated
// (RunPARMVR) or loaded from a prefix capture (runPARMVRPointWarm).
// extra, when non-nil, adds to each loop's cascade options (an ablation
// row's configuration).
func runPARMVR(cfg machine.Config, p wave5.Params, strat Strategy, chunkBytes int,
	start func(m *machine.Machine, i int, l *loopir.Loop) error,
	extra func(l *loopir.Loop) []cascade.Option) ([]cascade.Result, error) {
	w, err := wave5.Build(p)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	results := make([]cascade.Result, 0, len(w.Loops))
	for i, l := range w.Loops {
		if err := start(m, i, l); err != nil {
			return nil, err
		}
		var opts []cascade.Option
		if extra != nil {
			opts = extra(l)
		}
		r, err := runPARMVRLoop(m, w.Space, l, strat, chunkBytes, opts...)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// runPARMVRLoop is the one per-loop body of every PARMVR driver: loop l
// runs under strat on m's caches as they stand, which the caller has set
// up (a cold call's start state, or the previous loop's and call's
// residue in a steady-state call). Statistics cover the loop alone.
// extra options apply after the strategy's own.
func runPARMVRLoop(m *machine.Machine, space *memsim.Space, l *loopir.Loop, strat Strategy, chunkBytes int, extra ...cascade.Option) (cascade.Result, error) {
	if strat == Sequential {
		return cascade.RunSequentialWarm(m, l), nil
	}
	opts, err := cascade.NewOptions(append([]cascade.Option{
		cascade.WithHelper(strat.helper()),
		cascade.WithSpace(space),
		cascade.WithChunkBytes(chunkBytes),
		cascade.WithKeepState(true), // the caller set the start state
	}, extra...)...)
	if err != nil {
		return cascade.Result{}, err
	}
	return cascade.Run(m, l, opts)
}

// RunPARMVRCall measures one call of PARMVR after warmupCalls prior calls
// on the same machine with warm caches. The paper's per-loop figures are
// for "the 12th call (out of 5000)" — a steady-state call whose caches
// carry the previous call's residue; warmupCalls = 0 reproduces
// RunPARMVR's cold-call behaviour except that no cache reset happens
// between loops.
//
// Unlike RunPARMVR, caches are NOT reset between loops or calls: the
// measurement captures the real call-to-call reuse (grid arrays stay
// L2-resident across calls; particle arrays never fit).
func RunPARMVRCall(cfg machine.Config, p wave5.Params, strat Strategy, chunkBytes, warmupCalls int) ([]cascade.Result, error) {
	w, err := wave5.Build(p)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	// Initial distribution models the parallel phases around the calls.
	distributeDataset(m, w)
	for c := 0; c < warmupCalls; c++ {
		if _, err := runWarmPoint(m, w, WarmPoint{Strat: strat, ChunkBytes: chunkBytes}); err != nil {
			return nil, err
		}
	}
	return runWarmPoint(m, w, WarmPoint{Strat: strat, ChunkBytes: chunkBytes})
}

// MergeMetrics folds the per-loop metric snapshots of a multi-loop run
// into one snapshot for the whole point: counters and phase cycles sum,
// so the result reads as if the registry had covered all loops as one
// measured region.
func MergeMetrics(results []cascade.Result) metrics.Snapshot {
	snaps := make([]metrics.Snapshot, len(results))
	for i, r := range results {
		snaps[i] = r.Metrics
	}
	return metrics.Merge(snaps...)
}

// TotalCycles sums the per-loop cycle counts.
func TotalCycles(results []cascade.Result) int64 {
	var total int64
	for _, r := range results {
		total += r.Cycles
	}
	return total
}

// hostParallel is the machine-level Parallel knob Machines applies to
// every configuration it hands out. The CLI sets it once, before any
// experiment runs, so no synchronization is needed.
var hostParallel machine.Parallel

// SetParallel selects the host-parallel simulation engine for every
// machine the experiments build. The knob is semantically transparent —
// parallel runs are bit-identical to serial ones — so it is left out of
// every cache key: parallel and serial sweeps share point, job and
// prefix entries. Call before running experiments.
func SetParallel(on bool) {
	if on {
		hostParallel = machine.ParallelOn
	} else {
		hostParallel = machine.ParallelOff
	}
}

// Machines returns the evaluation's two machines at their full processor
// counts (Table 1).
func Machines() []machine.Config {
	cfgs := machine.Presets()
	for i := range cfgs {
		cfgs[i] = cfgs[i].WithParallel(hostParallel)
	}
	return cfgs
}

// procSweep returns the processor counts the paper's Figure 2 plots for a
// machine: 2..4 on the Pentium Pro, 2..8 on the R10000.
func procSweep(cfg machine.Config) []int {
	var out []int
	for p := 2; p <= cfg.Procs; p++ {
		out = append(out, p)
	}
	return out
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cascade"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/report"
)

// QuickstartN is the default scatter-add length: 8MB of X, far beyond
// the simulated caches.
const QuickstartN = 1 << 20

// QuickstartScaledN is the quickstart loop length at a dataset scale,
// clamped so even tiny scales exercise several chunks.
func QuickstartScaledN(scale float64) int {
	n := int(float64(QuickstartN) * scale)
	if n < 1<<10 {
		n = 1 << 10
	}
	return n
}

// QuickstartRow is one strategy's run of the quickstart scatter-add
// loop, with the full registry snapshot for that measured region.
type QuickstartRow struct {
	Strategy Strategy
	Cycles   int64
	Speedup  float64 // vs the Sequential row
	Chunks   int
	// Metrics is the registry snapshot covering exactly this run:
	// per-processor cache counters plus cascade.p<i>.<phase> cycles.
	Metrics metrics.Snapshot
}

// QuickstartResult holds the quickstart demonstration: the scatter-add
// loop X(K(i)) += W(i) under each strategy on the 4-way Pentium Pro.
type QuickstartResult struct {
	Machine    string
	Procs      int
	N          int
	ChunkBytes int
	Rows       []QuickstartRow
}

// quickstartLoop allocates the arrays and describes the scatter-add loop
// (the same workload as examples/quickstart): X(K(i)) = X(K(i)) + W(i),
// unparallelizable because the scatter through K may collide. A fresh
// copy per run keeps strategies independent.
func quickstartLoop(n int) (*memsim.Space, *loopir.Loop, error) {
	space := memsim.NewSpace()
	x := space.Alloc("X", n, 8, 8)
	k := space.Alloc("K", n, 4, 4)
	w := space.Alloc("W", n, 8, 8)
	x.Fill(func(i int) float64 { return float64(i) })
	k.Fill(func(i int) float64 { return float64((i * 31) % n) })
	w.Fill(func(i int) float64 { return 0.25 * float64(i%17) })

	xref := loopir.Ref{Array: x, Index: loopir.Indirect{Tbl: k, Entry: loopir.Ident}}
	loop := &loopir.Loop{
		Name:        "scatter-add",
		Iters:       n,
		RO:          []loopir.Ref{{Array: w, Index: loopir.Ident}},
		RW:          []loopir.Ref{xref},
		Writes:      []loopir.Ref{xref},
		PreCycles:   1,
		FinalCycles: 2,
		Final: func(_ int, pre, rw []float64) []float64 {
			return []float64{rw[0] + pre[0]}
		},
	}
	if err := loop.Validate(); err != nil {
		return nil, nil, err
	}
	return space, loop, nil
}

// quickstartPoints is the demonstration's one point: the scatter-add
// loop at the scale's length on the 4-way Pentium Pro.
func quickstartPoints(rc RunConfig) []PointSpec {
	cfg := machine.PentiumPro(4)
	return []PointSpec{{
		Experiment: "quickstart", Machine: cfg.Name, Procs: cfg.Procs,
		ChunkKB: rc.ChunkBytes / 1024, Scale: rc.Scale, N: QuickstartScaledN(rc.Scale),
	}}
}

// runQuickstartPoint runs the scatter-add loop sequentially and under
// both cascaded helpers, each on a fresh machine and a fresh copy of the
// arrays. Its parts are the three runs in Strategies order, each with
// its registry snapshot. A spec naming a strategy, variant, chunk_bytes
// or warmup is refused: the point runs every strategy on its one loop.
func runQuickstartPoint(ctx context.Context, _ *PrefixState, ps PointSpec) (PointResult, error) {
	cfg, err := machineByName(ps.Machine)
	if err != nil {
		return PointResult{}, err
	}
	if err := refuseUnread(ps, "the scatter-add runs", "strategy", "variant", "chunk_bytes", "warmup"); err != nil {
		return PointResult{}, err
	}
	cfg = cfg.WithProcs(ps.Procs)
	res := PointResult{Index: ps.Index}
	for _, strat := range Strategies {
		if err := ctx.Err(); err != nil {
			return PointResult{}, err
		}
		space, loop, err := quickstartLoop(ps.N)
		if err != nil {
			return PointResult{}, err
		}
		m, err := machine.New(cfg)
		if err != nil {
			return PointResult{}, err
		}
		var r cascade.Result
		if strat == Sequential {
			r = cascade.RunSequential(m, loop, true)
		} else {
			opts, err := cascade.NewOptions(
				cascade.WithHelper(strat.helper()),
				cascade.WithSpace(space),
				cascade.WithChunkBytes(ps.ChunkKB*1024),
			)
			if err != nil {
				return PointResult{}, err
			}
			if r, err = cascade.Run(m, loop, opts); err != nil {
				return PointResult{}, err
			}
		}
		res.Parts = append(res.Parts, PointResult{Cycles: r.Cycles, Chunks: r.Chunks, Metrics: r.Metrics})
	}
	return res, nil
}

// quickstartMerge builds the rows, each strategy's speedup over the
// sequential run.
func quickstartMerge(rc RunConfig, results []PointResult) (Renderable, error) {
	if len(results) != 1 || len(results[0].Parts) != len(Strategies) {
		return nil, fmt.Errorf("quickstart merge: want one point of %d runs", len(Strategies))
	}
	ps := quickstartPoints(rc)[0]
	res := &QuickstartResult{Machine: ps.Machine, Procs: ps.Procs, N: ps.N, ChunkBytes: rc.ChunkBytes}
	base := results[0].Parts[0].Cycles
	for i, strat := range Strategies {
		r := results[0].Parts[i]
		res.Rows = append(res.Rows, QuickstartRow{
			Strategy: strat,
			Cycles:   r.Cycles,
			Speedup:  float64(base) / float64(r.Cycles),
			Chunks:   r.Chunks,
			Metrics:  r.Metrics,
		})
	}
	return res, nil
}

func init() {
	RegisterDecomposition("quickstart", Decomposition{Points: quickstartPoints, Run: runQuickstartPoint, Merge: quickstartMerge})
}

// Quickstart runs the demonstration through its decomposition.
func Quickstart(ctx context.Context, rc RunConfig) (*QuickstartResult, error) {
	return runAs[*QuickstartResult](ctx, "quickstart", rc)
}

// Render writes a summary table plus, per strategy, the per-processor
// phase-cycle and cache-miss breakdown drawn from the registry
// snapshots.
func (r *QuickstartResult) Render(w io.Writer) {
	t := report.NewTable(
		"Quickstart. scatter-add X(K(i)) += W(i), n="+itoa(r.N)+" — "+r.Machine+
			" (chunks "+report.KB(r.ChunkBytes)+")",
		"Strategy", "Cycles", "Chunks", "Speedup")
	for _, row := range r.Rows {
		t.Addf(row.Strategy.String(), report.Int(row.Cycles), row.Chunks, row.Speedup)
	}
	t.Render(w)
	io.WriteString(w, "\n")
	for _, row := range r.Rows {
		row.renderBreakdown(w, r.Procs)
	}
}

// renderBreakdown writes one strategy's per-processor table: simulated
// cycles by cascade phase alongside the cache activity the registry
// recorded for the same measured region.
func (row QuickstartRow) renderBreakdown(w io.Writer, procs int) {
	t := report.NewTable(
		row.Strategy.String()+" — per-processor cycles and misses",
		"Proc", "helper", "exec", "transfer", "wait", "L1 misses", "L2 misses")
	s := row.Metrics
	for p := 0; p < procs; p++ {
		pfx := "p" + itoa(p)
		t.Addf(p,
			report.Int(s.Get("cascade."+pfx+".helper")),
			report.Int(s.Get("cascade."+pfx+".exec")),
			report.Int(s.Get("cascade."+pfx+".transfer")),
			report.Int(s.Get("cascade."+pfx+".wait")),
			report.Int(s.Get(pfx+".l1.misses")),
			report.Int(s.Get(pfx+".l2.misses")))
	}
	t.Addf("total",
		report.Int(s.Get("cascade.total.helper")),
		report.Int(s.Get("cascade.total.exec")),
		report.Int(s.Get("cascade.total.transfer")),
		report.Int(s.Get("cascade.total.wait")),
		"", "")
	t.Render(w)
	io.WriteString(w, "\n")
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/wave5"
)

// LoopStats is one strategy's measurement of one PARMVR loop, carrying
// everything Figures 3, 4 and 5 plot.
type LoopStats struct {
	Loop     string
	Strategy Strategy
	Cycles   int64
	// L1Misses and L2Misses are the misses observed by the execution
	// phases (the running loop), the paper's Figures 5 and 4. Helper
	// traffic is off the critical path and excluded, as in the paper's
	// measurements.
	L1Misses int64
	L2Misses int64
}

// BreakdownResult holds the per-loop measurements of all three strategies
// on one machine — the shared substance of Figures 3, 4 and 5.
type BreakdownResult struct {
	Machine    string
	Procs      int
	ChunkBytes int
	Params     wave5.Params
	// Stats[strategy][loopIndex]
	Stats map[Strategy][]LoopStats
}

// Breakdowns runs the measurement Figures 3, 4 and 5 share — the
// fifteen PARMVR loops under all three strategies, 4 processors, the
// paper's "12th call out of 5000" played by deterministic workload
// construction — through RunDecomposed, and returns one breakdown per
// machine in Machines() order.
func Breakdowns(ctx context.Context, rc RunConfig) ([]*BreakdownResult, error) {
	r, _, err := RunDecomposed(ctx, "fig3", rc)
	if err != nil {
		return nil, err
	}
	var out []*BreakdownResult
	for _, v := range r.(Group) {
		out = append(out, v.(breakdownView).BreakdownResult)
	}
	return out, nil
}

func newBreakdown(name string, procs, chunkBytes int, p wave5.Params) *BreakdownResult {
	return &BreakdownResult{
		Machine:    name,
		Procs:      procs,
		ChunkBytes: chunkBytes,
		Params:     p,
		Stats:      make(map[Strategy][]LoopStats),
	}
}

// add records one strategy's per-loop measurements.
func (b *BreakdownResult) add(strat Strategy, loops []LoopResult) {
	stats := make([]LoopStats, len(loops))
	for i, l := range loops {
		stats[i] = LoopStats{
			Loop:     l.Loop,
			Strategy: strat,
			Cycles:   l.Cycles,
			L1Misses: l.L1.Misses,
			L2Misses: l.L2.Misses,
		}
	}
	b.Stats[strat] = stats
}

// breakdownPoints decomposes Figures 3-5: per machine, one 4-processor
// PARMVR call per strategy. Each point shares fig6's cold-call prefix
// for its machine.
func breakdownPoints(fig string) func(rc RunConfig) []PointSpec {
	return func(rc RunConfig) []PointSpec {
		var specs []PointSpec
		for _, cfg := range Machines() {
			for _, strat := range Strategies {
				specs = append(specs, PointSpec{
					Experiment: fig, Index: len(specs), Machine: cfg.Name, Procs: studyProcs,
					Strategy: strat.Token(), ChunkKB: rc.ChunkBytes / 1024, Scale: rc.Scale,
				})
			}
		}
		return specs
	}
}

// runBreakdownPointWarm is a fig3-5 point's warm path: the PARMVR call
// of a fig6 point, reported per loop as well.
func runBreakdownPointWarm(_ context.Context, st *PrefixState, ps PointSpec) (PointResult, error) {
	rr, err := runPARMVRWarm(st, ps)
	if err != nil {
		return PointResult{}, err
	}
	res := parmvrResult(ps.Index, rr)
	res.Loops = loopResults(st.names, rr)
	return res, nil
}

// breakdownMerge rebuilds one figure's Group of per-machine breakdowns.
func breakdownMerge(fig int) func(rc RunConfig, results []PointResult) (Renderable, error) {
	return func(rc RunConfig, results []PointResult) (Renderable, error) {
		machines := Machines()
		if len(results) != len(machines)*len(Strategies) {
			return nil, fmt.Errorf("fig%d merge: %d results, want %d", fig, len(results), len(machines)*len(Strategies))
		}
		var g Group
		k := 0
		for _, cfg := range machines {
			b := newBreakdown(cfg.Name, studyProcs, rc.ChunkBytes, rc.Params())
			for _, strat := range Strategies {
				// The renderers index every strategy's rows by the
				// sequential row's loop index.
				if n := len(results[k].Loops); n != wave5.NumLoops {
					return nil, fmt.Errorf("fig%d merge: point %d reports %d loops, want %d", fig, k, n, wave5.NumLoops)
				}
				b.add(strat, results[k].Loops)
				k++
			}
			g = append(g, breakdownView{b, fig})
		}
		return g, nil
	}
}

func init() {
	for _, fig := range []int{3, 4, 5} {
		name := fmt.Sprintf("fig%d", fig)
		RegisterDecomposition(name, Decomposition{
			Points:  breakdownPoints(name),
			Run:     coldRun(parmvrPrefix, runBreakdownPointWarm),
			Merge:   breakdownMerge(fig),
			Prefix:  parmvrPrefix,
			RunWarm: runBreakdownPointWarm,
		})
	}
}

// renderMetric writes one per-loop table with the given title and metric
// extractor.
func (b *BreakdownResult) renderMetric(w io.Writer, title string, metric func(LoopStats) int64) {
	t := report.NewTable(title,
		"Loop", Sequential.String(), Prefetched.String(), Restructured.String())
	for i := range b.Stats[Sequential] {
		t.Add(b.Stats[Sequential][i].Loop,
			report.Int(metric(b.Stats[Sequential][i])),
			report.Int(metric(b.Stats[Prefetched][i])),
			report.Int(metric(b.Stats[Restructured][i])))
	}
	t.Render(w)
	io.WriteString(w, "\n")
}

// RenderFig3 writes Figure 3: execution times (cycles) of the fifteen
// loops under each strategy.
func (b *BreakdownResult) RenderFig3(w io.Writer) {
	b.renderMetric(w,
		"Figure 3. Execution times of PARMVR loops (cycles) — "+b.config(),
		func(s LoopStats) int64 { return s.Cycles })
}

// RenderFig4 writes Figure 4: L2 cache misses per loop.
func (b *BreakdownResult) RenderFig4(w io.Writer) {
	b.renderMetric(w,
		"Figure 4. L2 Cache Misses in PARMVR — "+b.config(),
		func(s LoopStats) int64 { return s.L2Misses })
}

// RenderFig5 writes Figure 5: L1 data cache misses per loop.
func (b *BreakdownResult) RenderFig5(w io.Writer) {
	b.renderMetric(w,
		"Figure 5. L1 Data Cache Misses in PARMVR — "+b.config(),
		func(s LoopStats) int64 { return s.L1Misses })
}

func (b *BreakdownResult) config() string {
	return b.Machine + " (" + report.KB(b.ChunkBytes) + " chunks, " +
		itoa(b.Procs) + " procs)"
}

// Totals sums a metric over all loops for one strategy.
func (b *BreakdownResult) Totals(strat Strategy, metric func(LoopStats) int64) int64 {
	var total int64
	for _, s := range b.Stats[strat] {
		total += metric(s)
	}
	return total
}

// MissReduction returns 1 - cascaded/sequential for total L2 misses under
// the given cascaded strategy — the "eliminates 93-94% of the L2 cache
// misses" statistic of §3.3.
func (b *BreakdownResult) MissReduction(strat Strategy) float64 {
	seq := b.Totals(Sequential, func(s LoopStats) int64 { return s.L2Misses })
	if seq == 0 {
		return 0
	}
	c := b.Totals(strat, func(s LoopStats) int64 { return s.L2Misses })
	return 1 - float64(c)/float64(seq)
}

func itoa(v int) string {
	return report.Int(int64(v))
}

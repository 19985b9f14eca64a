// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation. Each benchmark runs the
// corresponding experiment end-to-end and reports the headline numbers as
// benchmark metrics (speedups as "x…", miss reductions as percentages),
// so `go test -bench=.` prints the reproduced results next to wall time.
//
// Benchmarks run the PARMVR dataset at a reduced scale (the workload
// shape, cache-overflow behaviour, and conflict structure are preserved;
// see wave5.Params.Scaled) to keep the suite's wall time reasonable.
// EXPERIMENTS.md records full-scale runs produced with cmd/cascade-sim.
package repro_test

import (
	"context"
	"io"
	"testing"

	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/synthetic"
	"repro/internal/wave5"
)

// benchScale is the PARMVR shrink factor for benchmarks. Short mode
// (the CI bench-smoke job) shrinks further: the point there is catching
// compile errors and gross regressions in the benchmark paths on every
// push, not producing publishable numbers.
const (
	benchScale      = 0.05
	benchScaleShort = 0.01
)

func benchParams() wave5.Params {
	return benchRunConfig().Params()
}

// benchRunConfig is the run configuration of the decomposed sweeps'
// benchmarks: the benchmark scale and the paper's best chunk size.
func benchRunConfig() experiments.RunConfig {
	rc := experiments.DefaultRunConfig()
	rc.Scale = benchScale
	if testing.Short() {
		rc.Scale = benchScaleShort
	}
	return rc
}

// BenchmarkTable1 regenerates Table 1 (machine memory characteristics).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1().Render(io.Discard)
	}
}

// BenchmarkFig2 regenerates Figure 2: overall PARMVR speedup versus
// processor count for both helpers on both machines.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(context.Background(), benchRunConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup("PentiumPro", experiments.Restructured, 4), "xPPro-restr-4p")
		b.ReportMetric(res.Speedup("PentiumPro", experiments.Prefetched, 4), "xPPro-pref-4p")
		b.ReportMetric(res.Speedup("R10000", experiments.Restructured, 8), "xR10k-restr-8p")
		b.ReportMetric(res.Speedup("R10000", experiments.Prefetched, 8), "xR10k-pref-8p")
	}
}

// breakdowns runs the shared Figure 3/4/5 measurement on both machines
// and reports one metric per machine.
func breakdowns(b *testing.B, unit string, metric func(*experiments.BreakdownResult) float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Breakdowns(context.Background(), benchRunConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			b.ReportMetric(metric(r), unit+"-"+r.Machine)
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: per-loop execution cycles. The
// reported metric is the total restructured-vs-sequential cycle ratio.
func BenchmarkFig3(b *testing.B) {
	breakdowns(b, "xoverall", func(res *experiments.BreakdownResult) float64 {
		cyc := func(s experiments.LoopStats) int64 { return s.Cycles }
		return float64(res.Totals(experiments.Sequential, cyc)) / float64(res.Totals(experiments.Restructured, cyc))
	})
}

// BenchmarkFig4 regenerates Figure 4: per-loop L2 misses; the metric is
// the percentage of execution-phase L2 misses eliminated by restructuring
// (the paper reports 93-94% on the Pentium Pro, 47% on the R10000).
func BenchmarkFig4(b *testing.B) {
	breakdowns(b, "%L2-eliminated", func(res *experiments.BreakdownResult) float64 {
		return 100 * res.MissReduction(experiments.Restructured)
	})
}

// BenchmarkFig5 regenerates Figure 5: per-loop L1 data-cache misses; the
// metric is the percentage of execution-phase L1 misses eliminated.
func BenchmarkFig5(b *testing.B) {
	breakdowns(b, "%L1-eliminated", func(res *experiments.BreakdownResult) float64 {
		l1 := func(s experiments.LoopStats) int64 { return s.L1Misses }
		return 100 * (1 - float64(res.Totals(experiments.Restructured, l1))/float64(res.Totals(experiments.Sequential, l1)))
	})
}

// BenchmarkFig6 regenerates Figure 6: speedup versus chunk size; the
// metrics are the best chunk size and its speedup per machine.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(context.Background(), benchRunConfig())
		if err != nil {
			b.Fatal(err)
		}
		ppChunk, ppSpeed := res.Best("PentiumPro", experiments.Restructured)
		rkChunk, rkSpeed := res.Best("R10000", experiments.Restructured)
		b.ReportMetric(float64(ppChunk)/1024, "KB-best-PPro")
		b.ReportMetric(ppSpeed, "xPPro-best")
		b.ReportMetric(float64(rkChunk)/1024, "KB-best-R10k")
		b.ReportMetric(rkSpeed, "xR10k-best")
	}
}

// BenchmarkFig7 regenerates Figure 7: synthetic-loop speedups under
// unbounded processors; metrics are the dense and sparse peaks per
// machine (paper: ~4 dense, 16/14 sparse).
func BenchmarkFig7(b *testing.B) {
	const n = 1 << 19 // 2MB arrays at bench scale
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(context.Background(), n)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Peak("PentiumPro", "dense"), "xPPro-dense")
		b.ReportMetric(res.Peak("PentiumPro", "sparse(k=8)"), "xPPro-sparse")
		b.ReportMetric(res.Peak("R10000", "dense"), "xR10k-dense")
		b.ReportMetric(res.Peak("R10000", "sparse(k=8)"), "xR10k-sparse")
	}
}

// BenchmarkAblationJumpOut measures §3.3's jump-out-of-helper refinement.
func BenchmarkAblationJumpOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationJumpOut(context.Background(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
		jump, _ := a.Find("PentiumPro", "jump out on signal")
		wait, _ := a.Find("PentiumPro", "wait for helper completion")
		b.ReportMetric(float64(wait.Cycles)/float64(jump.Cycles), "xjumpout-gain-PPro")
	}
}

// BenchmarkAblationPrecompute measures §2.1's read-only precomputation.
func BenchmarkAblationPrecompute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationPrecompute(context.Background(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
		raw, _ := a.Find("PentiumPro", "store raw operands")
		pre, _ := a.Find("PentiumPro", "precompute in helper")
		b.ReportMetric(float64(raw.Cycles)/float64(pre.Cycles), "xprecompute-gain-PPro")
	}
}

// BenchmarkAblationChunking compares byte-budget chunking (§2.2) against
// block partitioning.
func BenchmarkAblationChunking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationChunking(context.Background(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
		budget, _ := a.Find("PentiumPro", "64KB byte budget")
		block, _ := a.Find("PentiumPro", "one block per processor")
		b.ReportMetric(float64(block.Cycles)/float64(budget.Cycles), "xbudget-gain-PPro")
	}
}

// BenchmarkAblationCompilerPrefetch tests the paper's MIPSpro hypothesis.
func BenchmarkAblationCompilerPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationCompilerPrefetch(context.Background(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
		on, _ := a.Find("R10000", "MIPSpro prefetch on (prefetched helper)")
		off, _ := a.Find("R10000", "MIPSpro prefetch off (prefetched helper)")
		b.ReportMetric(on.Speedup, "xhelper-with-mipspro")
		b.ReportMetric(off.Speedup, "xhelper-without-mipspro")
	}
}

// BenchmarkAblationTLB measures the cost attributed to address
// translation in the sequential baseline.
func BenchmarkAblationTLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationTLB(context.Background(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
		on, _ := a.Find("R10000", "TLB modelled")
		off, _ := a.Find("R10000", "TLB disabled")
		b.ReportMetric(float64(on.Cycles)/float64(off.Cycles), "xTLB-cost-R10k")
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// loop iterations per second for a sequential PARMVR pass, so regressions
// in the substrate are visible.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := benchParams()
	var iters int64
	w := wave5.MustBuild(p)
	for _, l := range w.Loops {
		iters += int64(l.Iters)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPARMVR(machine.PentiumPro(4), p, experiments.Sequential, cascade.DefaultChunkBytes); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(iters*int64(b.N))/b.Elapsed().Seconds(), "sim-iters/s")
}

// BenchmarkSyntheticUnbounded measures one unbounded-processor cascaded
// run of the sparse synthetic loop (the Figure 7 inner operation).
func BenchmarkSyntheticUnbounded(b *testing.B) {
	const n = 1 << 18
	for i := 0; i < b.N; i++ {
		space, l := synthetic.MustBuild(synthetic.Sparse(n))
		opts := cascade.Options{
			Helper:     cascade.HelperRestructure,
			ChunkBytes: 8 * 1024,
			JumpOut:    true,
			Space:      space,
		}
		if _, err := cascade.RunUnbounded(machine.PentiumPro(1), l, opts); err != nil {
			b.Fatal(err)
		}
	}
}

package experiments

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/wave5"
)

// Warm-start benchmarks measure what reusing a captured warm prefix buys
// in host wall-clock time. A warm-started sweep simulates its shared
// prefix (data distribution + sequential warm-up calls) once, captures
// it, and starts every point from the capture; the fresh baseline
// re-simulates the whole prefix for every point. The warm rows are
// bit-identical to the fresh ones (TestWarmSweepBitIdentical and the
// capture differentials in internal/cascade), so the ratio is pure
// simulator speedup from prefix amortization. BENCH_snapshot.json is the
// historical record of the copy-on-write snapshots these benchmarks
// measured before captures replaced them.

// benchWarmPoints is a prefix-heavy chunk-size sweep: nine points — one
// sequential anchor plus both cascaded strategies at four chunk budgets
// — all reachable from one strategy-independent warm prefix.
func benchWarmPoints() []WarmPoint {
	pts := []WarmPoint{{Strat: Sequential}}
	for _, chunk := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		pts = append(pts,
			WarmPoint{Strat: Prefetched, ChunkBytes: chunk},
			WarmPoint{Strat: Restructured, ChunkBytes: chunk})
	}
	return pts
}

// benchWarmScale follows the repo bench convention: short mode (the CI
// bench-smoke job) shrinks the dataset — there the point is keeping the
// benchmark paths compiling and running, not producing numbers.
func benchWarmScale() float64 {
	if testing.Short() {
		return 0.01
	}
	return 0.05
}

// warmSweep runs points the way the warm path does: one warm prefix
// built, then every point loaded from it onto its own machine and
// dataset.
func warmSweep(b *testing.B, cfg machine.Config, scale float64, points []WarmPoint) {
	b.Helper()
	st := buildWarmPrefix(b, cfg, scale, DefaultWarmupCalls)
	for i, pt := range points {
		if _, err := runWarmsweepPoint(context.Background(), st, warmSpec(i, cfg, scale, DefaultWarmupCalls, pt)); err != nil {
			b.Fatal(err)
		}
	}
}

// freshSweepPoint measures one point the expensive way: a fresh machine
// runs the whole prefix itself, then the point's steady-state call.
func freshSweepPoint(b *testing.B, cfg machine.Config, p wave5.Params, warmupCalls int, pt WarmPoint) {
	b.Helper()
	if _, _, err := freshWarmPoint(cfg, p, warmupCalls, pt, false); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSnapshotChunkSweep compares a nine-point chunk-size sweep
// under the two drivers: "fresh" re-simulates the shared prefix for
// every point, "warm" simulates it once and loads its capture per point.
// One prefix group, so
// the warm variant's prefix cost is amortized across all nine points.
func BenchmarkSnapshotChunkSweep(b *testing.B) {
	cfg := machine.PentiumPro(4)
	scale := benchWarmScale()
	p := wave5.DefaultParams().Scaled(scale)
	points := benchWarmPoints()

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pt := range points {
				freshSweepPoint(b, cfg, p, DefaultWarmupCalls, pt)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			warmSweep(b, cfg, scale, points)
		}
	})
}

// BenchmarkSnapshotProcSweep is the grouped-prefix shape of a Figure
// 2-style sweep: three processor counts, each its own prefix group of
// three strategy points. The warm variant amortizes within each group
// only (a capture cannot change the processor count), so its ceiling is
// lower than the chunk sweep's — this benchmark records that honestly.
func BenchmarkSnapshotProcSweep(b *testing.B) {
	scale := benchWarmScale()
	p := wave5.DefaultParams().Scaled(scale)
	procs := []int{2, 3, 4}
	points := []WarmPoint{
		{Strat: Sequential},
		{Strat: Prefetched, ChunkBytes: 16 << 10},
		{Strat: Restructured, ChunkBytes: 16 << 10},
	}

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, np := range procs {
				for _, pt := range points {
					freshSweepPoint(b, machine.PentiumPro(np), p, DefaultWarmupCalls, pt)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, np := range procs {
				warmSweep(b, machine.PentiumPro(np), scale, points)
			}
		}
	})
}

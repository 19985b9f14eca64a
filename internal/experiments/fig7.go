package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/synthetic"
)

// Fig7ChunkSizesKB are the chunk sizes of Figure 7's x-axis.
var Fig7ChunkSizesKB = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Fig7Point is one point of Figure 7: unbounded-processor cascaded
// speedup of the synthetic loop at one chunk size.
type Fig7Point struct {
	Machine    string
	Variant    string // "dense" or "sparse(k=8)"
	Strategy   Strategy
	ChunkBytes int
	Speedup    float64
}

// Fig7Result holds the future-machine sweep.
type Fig7Result struct {
	N      int
	Points []Fig7Point
}

// fig7Variants are Figure 7's synthetic-loop variants by point token.
var fig7Variants = []struct {
	token string
	make  func(n int) synthetic.Params
}{{"dense", synthetic.Dense}, {"sparse", synthetic.Sparse}}

// fig7Variant resolves a point's variant token at array length n.
func fig7Variant(token string, n int) (synthetic.Params, error) {
	for _, v := range fig7Variants {
		if v.token == token {
			return v.make(n), nil
		}
	}
	return synthetic.Params{}, fmt.Errorf("unknown fig7 variant %q", token)
}

// fig7Points decomposes Figure 7: the synthetic loop with increased
// memory-access-to-computation ratio, simulated with unbounded
// processors (§3.4's single-processor alternation methodology), for
// dense and sparse variants, both helpers, chunk sizes 1KB-256KB, on
// both machines. One sequential baseline per (machine, variant) comes
// first, then the (machine × variant × chunk size × helper) sweep.
func fig7Points(rc RunConfig) []PointSpec {
	var specs []PointSpec
	add := func(cfg machine.Config, variant string, strat Strategy, kb int) {
		specs = append(specs, PointSpec{
			Experiment: "fig7", Index: len(specs), Machine: cfg.Name, Procs: cfg.Procs,
			Strategy: strat.Token(), ChunkKB: kb, N: rc.N, Variant: variant,
		})
	}
	for _, cfg := range Machines() {
		for _, v := range fig7Variants {
			add(cfg, v.token, Sequential, 0)
		}
	}
	for _, cfg := range Machines() {
		for _, v := range fig7Variants {
			for _, kb := range Fig7ChunkSizesKB {
				for _, strat := range []Strategy{Prefetched, Restructured} {
					add(cfg, v.token, strat, kb)
				}
			}
		}
	}
	return specs
}

// runFig7Point simulates one point on a fresh copy of its variant: the
// sequential baseline on one processor, or the cascade under unbounded
// processors. A spec naming anything the point does not read is
// refused, where it would otherwise hash to a key of its own for the
// plain point's bytes: procs other than the preset's (the run sets its
// own processor count), a chunk_bytes, warmup or scale, or a chunk_kb
// on the sequential baseline.
func runFig7Point(_ context.Context, _ *PrefixState, ps PointSpec) (PointResult, error) {
	cfg, err := machineByName(ps.Machine)
	if err != nil {
		return PointResult{}, err
	}
	if ps.Procs != cfg.Procs {
		return PointResult{}, fmt.Errorf("fig7 point: procs %d: the point runs %s's own processors (want %d)", ps.Procs, cfg.Name, cfg.Procs)
	}
	if err := refuseUnread(ps, "the synthetic loop", "chunk_bytes", "warmup", "scale"); err != nil {
		return PointResult{}, err
	}
	if ps.Strategy == Sequential.Token() {
		if err := refuseUnread(ps, "the sequential baseline", "chunk_kb"); err != nil {
			return PointResult{}, err
		}
	}
	v, err := fig7Variant(ps.Variant, ps.N)
	if err != nil {
		return PointResult{}, err
	}
	strat, err := ParseStrategy(ps.Strategy)
	if err != nil {
		return PointResult{}, err
	}
	space, l, err := synthetic.Build(v)
	if err != nil {
		return PointResult{}, err
	}
	var r cascade.Result
	if strat == Sequential {
		r, err = cascade.SequentialBaseline(cfg, l)
	} else {
		var opts cascade.Options
		opts, err = cascade.NewOptions(
			cascade.WithHelper(strat.helper()),
			cascade.WithChunkBytes(ps.ChunkKB*1024),
			cascade.WithSpace(space),
			cascade.WithPriorParallel(false),
		)
		if err == nil {
			r, err = cascade.RunUnbounded(cfg, l, opts)
		}
	}
	return PointResult{Index: ps.Index, Cycles: r.Cycles}, err
}

// fig7Merge divides each point by its (machine, variant) baseline, as
// cascade.Result.SpeedupOver does.
func fig7Merge(rc RunConfig, results []PointResult) (Renderable, error) {
	if want := len(fig7Points(rc)); len(results) != want {
		return nil, fmt.Errorf("fig7 merge: %d results, want %d", len(results), want)
	}
	res := &Fig7Result{N: rc.N}
	b, k := 0, len(Machines())*len(fig7Variants)
	for _, cfg := range Machines() {
		for _, v := range fig7Variants {
			base := cascade.Result{Cycles: results[b].Cycles}
			b++
			for _, kb := range Fig7ChunkSizesKB {
				for _, strat := range []Strategy{Prefetched, Restructured} {
					res.Points = append(res.Points, Fig7Point{
						Machine:    cfg.Name,
						Variant:    v.make(rc.N).Name(),
						Strategy:   strat,
						ChunkBytes: kb * 1024,
						Speedup:    cascade.Result{Cycles: results[k].Cycles}.SpeedupOver(base),
					})
					k++
				}
			}
		}
	}
	return res, nil
}

func init() {
	RegisterDecomposition("fig7", Decomposition{Points: fig7Points, Run: runFig7Point, Merge: fig7Merge})
}

// Fig7 reproduces Figure 7 through its decomposition.
func Fig7(ctx context.Context, rc RunConfig) (*Fig7Result, error) {
	return runAs[*Fig7Result](ctx, "fig7", rc)
}

// Speedup returns the sweep value for a configuration (0 if absent).
func (r *Fig7Result) Speedup(machineName, variant string, strat Strategy, chunkBytes int) float64 {
	for _, pt := range r.Points {
		if pt.Machine == machineName && pt.Variant == variant &&
			pt.Strategy == strat && pt.ChunkBytes == chunkBytes {
			return pt.Speedup
		}
	}
	return 0
}

// Peak returns the highest speedup for a machine and variant across chunk
// sizes and helpers — the paper's "speedups as high as 16" statistic.
func (r *Fig7Result) Peak(machineName, variant string) float64 {
	var best float64
	for _, pt := range r.Points {
		if pt.Machine == machineName && pt.Variant == variant && pt.Speedup > best {
			best = pt.Speedup
		}
	}
	return best
}

// Render writes one table per machine with the four series of the paper's
// panels (restructured/prefetched x sparse/dense).
func (r *Fig7Result) Render(w io.Writer) {
	dense := synthetic.Dense(r.N).Name()
	sparse := synthetic.Sparse(r.N).Name()
	for _, cfg := range Machines() {
		t := report.NewTable(
			"Figure 7. Cascaded execution speedups with increased memory access costs — "+cfg.Name,
			"KBytes/chunk", "Restructured,Sparse", "Prefetched,Sparse",
			"Restructured,Dense", "Prefetched,Dense")
		for _, kb := range Fig7ChunkSizesKB {
			t.Addf(itoa(kb),
				r.Speedup(cfg.Name, sparse, Restructured, kb*1024),
				r.Speedup(cfg.Name, sparse, Prefetched, kb*1024),
				r.Speedup(cfg.Name, dense, Restructured, kb*1024),
				r.Speedup(cfg.Name, dense, Prefetched, kb*1024))
		}
		t.Render(w)
		io.WriteString(w, "\n")
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cascade"
	"repro/internal/gallery"
	"repro/internal/machine"
	"repro/internal/report"
)

// GalleryRow is one kernel's measurement on one machine.
type GalleryRow struct {
	Kernel            string
	SeqCycles         int64
	PrefetchedSpeedup float64
	RestructuredSpeed float64
	HelperCompletion  float64 // restructured
}

// GalleryResult summarizes when cascading pays across the kernel gallery.
type GalleryResult struct {
	Machine string
	N       int
	Rows    []GalleryRow
}

// galleryPoints decomposes the gallery into one point per (machine,
// kernel), each running the kernel at n elements under all three
// strategies.
func galleryPoints(rc RunConfig) []PointSpec {
	var specs []PointSpec
	for _, cfg := range Machines() {
		for _, k := range gallery.Kernels() {
			specs = append(specs, PointSpec{
				Experiment: "gallery", Index: len(specs), Machine: cfg.Name, Procs: cfg.Procs,
				ChunkKB: rc.ChunkBytes / 1024, N: rc.N, Variant: k.Name,
			})
		}
	}
	return specs
}

// runGalleryPoint runs one kernel sequentially and then under both
// cascaded helpers, each on its own machine and arrays, and checks that
// every cascaded run wrote exactly the sequential run's output. Its
// parts are the sequential, prefetched and restructured runs. A spec
// naming a strategy, scale, chunk_bytes or warmup is refused: the point
// runs every strategy on its kernel at n elements.
func runGalleryPoint(_ context.Context, _ *PrefixState, ps PointSpec) (PointResult, error) {
	cfg, err := machineByName(ps.Machine)
	if err != nil {
		return PointResult{}, err
	}
	if err := refuseUnread(ps, "a kernel run", "strategy", "scale", "chunk_bytes", "warmup"); err != nil {
		return PointResult{}, err
	}
	cfg = cfg.WithProcs(ps.Procs)
	k, err := gallery.Lookup(ps.Variant)
	if err != nil {
		return PointResult{}, err
	}
	_, lseq, err := k.Build(ps.N)
	if err != nil {
		return PointResult{}, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return PointResult{}, err
	}
	base := cascade.RunSequential(m, lseq, true)
	want := lseq.Writes[0].Array.Snapshot()

	res := PointResult{Index: ps.Index, Parts: []PointResult{{Cycles: base.Cycles}}}
	for _, strat := range []Strategy{Prefetched, Restructured} {
		space, l, err := k.Build(ps.N)
		if err != nil {
			return PointResult{}, err
		}
		mm, err := machine.New(cfg)
		if err != nil {
			return PointResult{}, err
		}
		opts, err := cascade.NewOptions(
			cascade.WithHelper(strat.helper()),
			cascade.WithSpace(space),
			cascade.WithChunkBytes(ps.ChunkKB*1024),
		)
		if err != nil {
			return PointResult{}, err
		}
		r, err := cascade.Run(mm, l, opts)
		if err != nil {
			return PointResult{}, err
		}
		if eq, _ := l.Writes[0].Array.Equal(want); !eq {
			return PointResult{}, errKernelDiverged(k.Name, strat)
		}
		res.Parts = append(res.Parts, PointResult{
			Cycles: r.Cycles, HelperIters: int64(r.HelperIters), TotalIters: int64(r.TotalIters),
		})
	}
	return res, nil
}

// galleryMerge builds one table per machine with the driver's
// arithmetic: cascade.Result's SpeedupOver and HelperCompletion.
func galleryMerge(rc RunConfig, results []PointResult) (Renderable, error) {
	if want := len(galleryPoints(rc)); len(results) != want {
		return nil, fmt.Errorf("gallery merge: %d results, want %d", len(results), want)
	}
	var g Group
	k := 0
	for _, cfg := range Machines() {
		out := &GalleryResult{Machine: cfg.Name, N: rc.N}
		for _, kern := range gallery.Kernels() {
			parts := results[k].Parts
			k++
			if len(parts) != 3 {
				return nil, fmt.Errorf("gallery merge: %s on %s has %d runs, want 3", kern.Name, cfg.Name, len(parts))
			}
			base := cascade.Result{Cycles: parts[0].Cycles}
			pre := cascade.Result{Cycles: parts[1].Cycles}
			restr := cascade.Result{Cycles: parts[2].Cycles,
				HelperIters: int(parts[2].HelperIters), TotalIters: int(parts[2].TotalIters)}
			out.Rows = append(out.Rows, GalleryRow{
				Kernel:            kern.Name,
				SeqCycles:         base.Cycles,
				PrefetchedSpeedup: pre.SpeedupOver(base),
				RestructuredSpeed: restr.SpeedupOver(base),
				HelperCompletion:  restr.HelperCompletion(),
			})
		}
		g = append(g, out)
	}
	return g, nil
}

func init() {
	RegisterDecomposition("gallery", Decomposition{Points: galleryPoints, Run: runGalleryPoint, Merge: galleryMerge})
}

// Gallery runs the kernel gallery through its decomposition: one result
// per machine, in Machines() order.
func Gallery(ctx context.Context, rc RunConfig) ([]*GalleryResult, error) {
	return runMembers[*GalleryResult](ctx, "gallery", rc)
}

// errKernelDiverged reports a correctness violation — it should never
// fire; it exists so the gallery doubles as an integration check.
type kernelDivergedError struct {
	kernel string
	strat  Strategy
}

func errKernelDiverged(kernel string, strat Strategy) error {
	return kernelDivergedError{kernel, strat}
}

func (e kernelDivergedError) Error() string {
	return "experiments: kernel " + e.kernel + " diverged under " + e.strat.String()
}

// Render writes the gallery table.
func (g *GalleryResult) Render(w io.Writer) {
	t := report.NewTable(
		"Kernel gallery — "+g.Machine+" ("+report.Int(int64(g.N))+" elements/kernel, 64KB chunks)",
		"Kernel", "Sequential cycles", "Prefetched", "Restructured", "helper done")
	for _, r := range g.Rows {
		t.Add(r.Kernel, report.Int(r.SeqCycles),
			report.Float(r.PrefetchedSpeedup), report.Float(r.RestructuredSpeed),
			report.Float(r.HelperCompletion))
	}
	t.Render(w)
	io.WriteString(w, "\n")
}

// Find returns a kernel's row.
func (g *GalleryResult) Find(kernel string) (GalleryRow, bool) {
	for _, r := range g.Rows {
		if r.Kernel == kernel {
			return r, true
		}
	}
	return GalleryRow{}, false
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/wave5"
)

// AmdahlPoint is one processor count of the application-level study.
type AmdahlPoint struct {
	Procs int
	// StdSpeedup is the whole-application speedup when the
	// unparallelized loops run sequentially (Figure 1a).
	StdSpeedup float64
	// CascSpeedup is the speedup when they run cascaded (Figure 1b,
	// restructured helper).
	CascSpeedup float64
	// SeqFraction is the fraction of the standard execution spent in the
	// unparallelized loops at this processor count — the Amdahl
	// bottleneck growing with P.
	SeqFraction float64
}

// AmdahlResult quantifies the paper's motivation: as the parallel
// sections speed up with more processors, the unparallelized loops
// dominate, and cascading them lifts the whole-application curve.
//
// The application is the PARMVR dataset's parallel per-particle update
// (run with RunParallel, which also produces the distributed cache state
// the loops then face) followed by the fifteen unparallelized loops. The
// parallel phase is repeated ParallelReps times per "time step" so the
// parallel:sequential work ratio at one processor resembles wave5's
// (PARMVR is ~50% of sequential execution).
type AmdahlResult struct {
	Machine      string
	ParallelReps int
	Points       []AmdahlPoint
}

// amdahlParallelReps balances the phases at ~50/50 on one processor.
const amdahlParallelReps = 10

// amdahlPoints decomposes the study into one point per (machine,
// processor count, standard|cascaded) application run, processor counts
// 1..Procs. At one processor the cascaded run is the standard one, which
// is also the baseline every speedup divides by, so it is one point.
func amdahlPoints(rc RunConfig) []PointSpec {
	var specs []PointSpec
	for _, cfg := range Machines() {
		for procs := 1; procs <= cfg.Procs; procs++ {
			for _, strat := range []Strategy{Sequential, Restructured} {
				if procs == 1 && strat != Sequential {
					continue
				}
				specs = append(specs, PointSpec{
					Experiment: "amdahl", Index: len(specs), Machine: cfg.Name, Procs: procs,
					Strategy: strat.Token(), ChunkKB: rc.ChunkBytes / 1024, Scale: rc.Scale,
				})
			}
		}
	}
	return specs
}

// runAmdahlPoint runs the application once on procs processors: the
// parallel phase amdahlParallelReps times, then the unparallelized loops
// sequentially or, for the restructured strategy, cascaded. Its parts
// are the parallel phase's cycles and the loops' cycles. A spec the
// study has no run for is refused: a strategy other than sequential or
// restructured, restructured on one processor (the standard run), or
// any n, variant, chunk_bytes or warmup.
func runAmdahlPoint(_ context.Context, _ *PrefixState, ps PointSpec) (PointResult, error) {
	cfg, err := machineByName(ps.Machine)
	if err != nil {
		return PointResult{}, err
	}
	cascaded := ps.Strategy == Restructured.Token()
	if !cascaded && ps.Strategy != Sequential.Token() {
		return PointResult{}, fmt.Errorf("amdahl point: strategy %q: the study runs %q or %q", ps.Strategy, Sequential.Token(), Restructured.Token())
	}
	if cascaded && ps.Procs == 1 {
		return PointResult{}, fmt.Errorf("amdahl point: %s on procs 1: one processor runs only the standard (%s) application", ps.Strategy, Sequential.Token())
	}
	if err := refuseUnread(ps, "the application run", "n", "variant", "chunk_bytes", "warmup"); err != nil {
		return PointResult{}, err
	}
	w, err := wave5.Build(RunConfig{Scale: ps.Scale}.Params())
	if err != nil {
		return PointResult{}, err
	}
	m, err := machine.New(cfg.WithProcs(ps.Procs))
	if err != nil {
		return PointResult{}, err
	}
	var par, loops int64
	for rep := 0; rep < amdahlParallelReps; rep++ {
		r, err := cascade.RunParallel(m, w.ParallelPhase(), rep > 0)
		if err != nil {
			return PointResult{}, err
		}
		par += r.Cycles
	}
	for _, l := range w.Loops {
		if !cascaded {
			loops += cascade.RunSequentialWarm(m, l).Cycles
			continue
		}
		opts, err := cascade.NewOptions(
			cascade.WithHelper(cascade.HelperRestructure),
			cascade.WithSpace(w.Space),
			cascade.WithChunkBytes(ps.ChunkKB*1024),
			cascade.WithKeepState(true), // the parallel phase set the state
		)
		if err != nil {
			return PointResult{}, err
		}
		r, err := cascade.Run(m, l, opts)
		if err != nil {
			return PointResult{}, err
		}
		loops += r.Cycles
	}
	return PointResult{Index: ps.Index, Parts: []PointResult{{Cycles: par}, {Cycles: loops}}}, nil
}

// amdahlMerge divides the one-processor total by each run's total.
func amdahlMerge(rc RunConfig, results []PointResult) (Renderable, error) {
	if want := len(amdahlPoints(rc)); len(results) != want {
		return nil, fmt.Errorf("amdahl merge: %d results, want %d", len(results), want)
	}
	type appTime struct{ par, loops int64 }
	k := 0
	next := func() (appTime, error) {
		parts := results[k].Parts
		k++
		if len(parts) != 2 {
			return appTime{}, fmt.Errorf("amdahl merge: point %d has %d parts, want 2", k-1, len(parts))
		}
		return appTime{parts[0].Cycles, parts[1].Cycles}, nil
	}
	var g Group
	for _, cfg := range Machines() {
		out := &AmdahlResult{Machine: cfg.Name, ParallelReps: amdahlParallelReps}
		base, err := next()
		if err != nil {
			return nil, err
		}
		baseTotal := base.par + base.loops
		for procs := 1; procs <= cfg.Procs; procs++ {
			std, casc := base, base
			if procs > 1 {
				if std, err = next(); err != nil {
					return nil, err
				}
				if casc, err = next(); err != nil {
					return nil, err
				}
			}
			out.Points = append(out.Points, AmdahlPoint{
				Procs:       procs,
				StdSpeedup:  float64(baseTotal) / float64(std.par+std.loops),
				CascSpeedup: float64(baseTotal) / float64(casc.par+casc.loops),
				SeqFraction: float64(std.loops) / float64(std.par+std.loops),
			})
		}
		g = append(g, out)
	}
	return g, nil
}

func init() {
	RegisterDecomposition("amdahl", Decomposition{Points: amdahlPoints, Run: runAmdahlPoint, Merge: amdahlMerge})
}

// Amdahl runs the application study through its decomposition: one
// result per machine, in Machines() order.
func Amdahl(ctx context.Context, rc RunConfig) ([]*AmdahlResult, error) {
	return runMembers[*AmdahlResult](ctx, "amdahl", rc)
}

// Render writes the study as a table.
func (r *AmdahlResult) Render(w io.Writer) {
	t := report.NewTable(
		"Application speedup with and without cascading — "+r.Machine+
			" (parallel phase x"+itoa(r.ParallelReps)+" + 15 unparallelized loops)",
		"Processors", "Standard app", "Cascaded app", "seq. fraction (std)")
	for _, pt := range r.Points {
		t.Addf(pt.Procs, pt.StdSpeedup, pt.CascSpeedup, report.Float(pt.SeqFraction))
	}
	t.Render(w)
	io.WriteString(w, "\n")
}

// RenderChart draws the two application curves.
func (r *AmdahlResult) RenderChart(w io.Writer) {
	var ticks []string
	std := report.Series{Name: "standard (Amdahl-limited)"}
	casc := report.Series{Name: "with cascaded execution"}
	for _, pt := range r.Points {
		ticks = append(ticks, itoa(pt.Procs))
		std.Y = append(std.Y, pt.StdSpeedup)
		casc.Y = append(casc.Y, pt.CascSpeedup)
	}
	p := &report.Plot{
		Title:  "Application speedup vs processors — " + r.Machine,
		XLabel: "processors",
		XTicks: ticks,
		Series: []report.Series{casc, std},
		Height: 12,
		YZero:  true,
	}
	p.Render(w)
	io.WriteString(w, "\n")
}

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

// LoopMissClasses is one loop's sequential-execution miss classification
// at one cache level (Hill's compulsory/capacity/conflict taxonomy).
type LoopMissClasses struct {
	Loop                           string
	Misses                         int64
	Compulsory, Capacity, Conflict int64
}

// ConflictResult classifies every PARMVR loop's sequential misses on one
// machine. The paper attributes restructuring's advantage "primarily
// [to] the elimination of conflict misses" (§3.3) and explains the
// R10000's higher sequential miss count by its L2's lower associativity;
// this analysis makes both claims checkable.
type ConflictResult struct {
	Machine string
	L1, L2  []LoopMissClasses
}

// classifyLoops runs every PARMVR loop sequentially on a fresh machine
// with miss classification enabled, returning each loop's measurements
// and results.
func classifyLoops(ctx context.Context, cfg machine.Config, p wave5.Params) ([]LoopResult, []cascade.Result, error) {
	w, err := wave5.Build(p)
	if err != nil {
		return nil, nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.EnableClassification()
	rr := make([]cascade.Result, 0, len(w.Loops))
	for _, l := range w.Loops {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// RunSequential resets caches (and therefore stats) at entry, so
		// the post-run counters cover exactly this loop. The simulated
		// prior parallel section touches every line first, so compulsory
		// counts stay near zero — as they would on the real application,
		// where the data was produced by earlier phases.
		rr = append(rr, cascade.RunSequential(m, l, true))
	}
	return loopResults(w.LoopNames(), rr), rr, nil
}

// conflictResult rebuilds one machine's classification from its loops.
func conflictResult(name string, loops []LoopResult) *ConflictResult {
	out := &ConflictResult{Machine: name}
	classes := func(loop string, m LoopMisses) LoopMissClasses {
		return LoopMissClasses{Loop: loop, Misses: m.Misses,
			Compulsory: m.Compulsory, Capacity: m.Capacity, Conflict: m.Conflict}
	}
	for _, l := range loops {
		out.L1 = append(out.L1, classes(l.Loop, l.L1))
		out.L2 = append(out.L2, classes(l.Loop, l.L2))
	}
	return out
}

// conflictsPoints decomposes the classification: one sequential point
// per machine, at its full processor count. Classification runs each
// loop's prior-parallel distribution itself, so the points declare no
// prefix.
func conflictsPoints(rc RunConfig) []PointSpec {
	var specs []PointSpec
	for _, cfg := range Machines() {
		specs = append(specs, PointSpec{
			Experiment: "conflicts", Index: len(specs), Machine: cfg.Name, Procs: cfg.Procs,
			Strategy: Sequential.Token(), Scale: rc.Scale,
		})
	}
	return specs
}

func runConflictsPoint(ctx context.Context, ps PointSpec) (PointResult, error) {
	cfg, err := machineByName(ps.Machine)
	if err != nil {
		return PointResult{}, err
	}
	loops, rr, err := classifyLoops(ctx, cfg.WithProcs(ps.Procs), wave5.DefaultParams().Scaled(ps.Scale))
	if err != nil {
		return PointResult{}, err
	}
	return PointResult{Index: ps.Index, Cycles: TotalCycles(rr), Metrics: MergeMetrics(rr), Loops: loops}, nil
}

func conflictsMerge(rc RunConfig, results []PointResult) (Renderable, error) {
	machines := Machines()
	if len(results) != len(machines) {
		return nil, fmt.Errorf("conflicts merge: %d results, want %d", len(results), len(machines))
	}
	var g Group
	for i, cfg := range machines {
		g = append(g, conflictResult(cfg.Name, results[i].Loops))
	}
	return g, nil
}

func init() {
	RegisterDecomposition("conflicts", Decomposition{
		Points: conflictsPoints,
		Run:    runConflictsPoint,
		Merge:  conflictsMerge,
	})
}

// Totals sums a level's classes.
func totalsOf(rows []LoopMissClasses) LoopMissClasses {
	t := LoopMissClasses{Loop: "TOTAL"}
	for _, r := range rows {
		t.Misses += r.Misses
		t.Compulsory += r.Compulsory
		t.Capacity += r.Capacity
		t.Conflict += r.Conflict
	}
	return t
}

// L2Totals returns the summed L2 classification.
func (c *ConflictResult) L2Totals() LoopMissClasses { return totalsOf(c.L2) }

// L1Totals returns the summed L1 classification.
func (c *ConflictResult) L1Totals() LoopMissClasses { return totalsOf(c.L1) }

// Render writes both levels' per-loop classifications.
func (c *ConflictResult) Render(w io.Writer) {
	render := func(level string, rows []LoopMissClasses) {
		t := report.NewTable(
			"Sequential miss classification ("+level+") — "+c.Machine,
			"Loop", "Misses", "Compulsory", "Capacity", "Conflict")
		all := append(append([]LoopMissClasses{}, rows...), totalsOf(rows))
		for _, r := range all {
			t.Add(r.Loop, report.Int(r.Misses), report.Int(r.Compulsory),
				report.Int(r.Capacity), report.Int(r.Conflict))
		}
		t.Render(w)
		io.WriteString(w, "\n")
	}
	render("L1", c.L1)
	render("L2", c.L2)
}

// classStats guards the classification partition invariant for tests.
func (r LoopMissClasses) partitionHolds() bool {
	return r.Compulsory+r.Capacity+r.Conflict == r.Misses
}

package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/wave5"
)

// conflictAnalysis runs the registry's conflicts decomposition and
// returns the named machine's classification.
func conflictAnalysis(t *testing.T, machineName string) *ConflictResult {
	t.Helper()
	r, _, err := RunDecomposed(context.Background(), "conflicts", testRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.(Group) {
		if c := v.(*ConflictResult); c.Machine == machineName {
			return c
		}
	}
	t.Fatalf("conflicts has no %s result", machineName)
	return nil
}

func TestConflictAnalysisPartition(t *testing.T) {
	c := conflictAnalysis(t, "R10000")
	for _, rows := range [][]LoopMissClasses{c.L1, c.L2} {
		for _, r := range rows {
			if !r.partitionHolds() {
				t.Errorf("%s: classes %d+%d+%d != misses %d",
					r.Loop, r.Compulsory, r.Capacity, r.Conflict, r.Misses)
			}
		}
	}
	if len(c.L1) != 15 || len(c.L2) != 15 {
		t.Errorf("loops = %d/%d", len(c.L1), len(c.L2))
	}
}

func TestConflictAnalysisFindsCombineConflicts(t *testing.T) {
	// combine_t2 walks three congruence-class-0 streams: on the 2-way
	// R10000 L2 its misses must be conflict-dominated, and it must be the
	// dominant source of L2 conflict misses overall — the model mechanism
	// behind the paper's associativity observation.
	c := conflictAnalysis(t, "R10000")
	var combine LoopMissClasses
	for _, r := range c.L2 {
		if r.Loop == "combine_t2" {
			combine = r
		}
	}
	if combine.Loop == "" {
		t.Fatal("combine_t2 missing")
	}
	if combine.Conflict < combine.Misses/2 {
		t.Errorf("combine_t2 L2 misses not conflict-dominated: %+v", combine)
	}
	// The Pentium Pro's 4-way L2 absorbs those conflicts.
	cp := conflictAnalysis(t, "PentiumPro")
	var combinePP LoopMissClasses
	for _, r := range cp.L2 {
		if r.Loop == "combine_t2" {
			combinePP = r
		}
	}
	if combinePP.Conflict > combine.Conflict/4 {
		t.Errorf("PentiumPro 4-way L2 should absorb combine_t2 conflicts: PPro %d vs R10000 %d",
			combinePP.Conflict, combine.Conflict)
	}
}

func TestConflictAnalysisRender(t *testing.T) {
	c := conflictAnalysis(t, "PentiumPro")
	var b strings.Builder
	c.Render(&b)
	for _, want := range []string{"L1", "L2", "TOTAL", "Conflict", "combine_t2"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
	if c.L2Totals().Misses <= 0 || c.L1Totals().Misses <= 0 {
		t.Error("totals empty")
	}
}

func TestAblationPriorParallel(t *testing.T) {
	a, err := AblationPriorParallel(context.Background(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range Machines() {
		dist, ok1 := a.Find(mc.Name, "data distributed by parallel section")
		cold, ok2 := a.Find(mc.Name, "cold caches")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing rows", mc.Name)
		}
		// On these machines a cache-to-cache supply costs about a memory
		// access, and the distribution leaves 1/P of the data in the
		// executing processor's own caches, so the two start states land
		// within ~15% of each other — the ablation documents that the
		// premise costs little here, it does not invert the result.
		lo, hi := float64(cold.Cycles)*0.85, float64(cold.Cycles)*1.15
		if float64(dist.Cycles) < lo || float64(dist.Cycles) > hi {
			t.Errorf("%s: distributed start %d outside 15%% of cold %d",
				mc.Name, dist.Cycles, cold.Cycles)
		}
		if dist.Cycles == cold.Cycles {
			t.Errorf("%s: distribution had no effect at all", mc.Name)
		}
	}
}

func TestRunPARMVRCallSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: steady-state run repeats the full PARMVR call")
	}
	p := testParams()
	cfg := machine.PentiumPro(4)
	// A steady-state call must be deterministic in its warm-up depth.
	call2a, err := RunPARMVRCall(cfg, p, Restructured, cascade.DefaultChunkBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	call2b, err := RunPARMVRCall(cfg, p, Restructured, cascade.DefaultChunkBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if TotalCycles(call2a) != TotalCycles(call2b) {
		t.Errorf("steady-state call nondeterministic: %d vs %d",
			TotalCycles(call2a), TotalCycles(call2b))
	}
	// Consecutive steady-state calls cost about the same (within 5%).
	call3, err := RunPARMVRCall(cfg, p, Restructured, cascade.DefaultChunkBytes, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := float64(TotalCycles(call2a)), float64(TotalCycles(call3))
	if a/b > 1.05 || b/a > 1.05 {
		t.Errorf("calls 3 and 4 differ by >5%%: %d vs %d", TotalCycles(call2a), TotalCycles(call3))
	}
	if len(call2a) != 15 {
		t.Errorf("loops = %d", len(call2a))
	}
}

func TestRunPARMVRCallSequential(t *testing.T) {
	p := testParams()
	res, err := RunPARMVRCall(machine.PentiumPro(2), p, Sequential, cascade.DefaultChunkBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if TotalCycles(res) <= 0 {
		t.Error("no cycles")
	}
	// The warm-call measurement must actually differ from the per-loop
	// cold measurement (KeepState carries real state between loops).
	cold, err := RunPARMVR(machine.PentiumPro(2), p, Sequential, cascade.DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range res {
		if res[i].Cycles == cold[i].Cycles {
			same++
		}
	}
	if same == len(res) {
		t.Error("steady-state call identical to cold per-loop measurement; KeepState inert?")
	}
}

func TestAblationVictimCache(t *testing.T) {
	a, err := AblationVictimCache(context.Background(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range Machines() {
		plain, ok1 := a.Find(mc.Name, "sequential, no victim buffer")
		victim, ok2 := a.Find(mc.Name, "sequential + victim buffer")
		restr, ok3 := a.Find(mc.Name, "restructured cascade")
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("%s: missing rows", mc.Name)
		}
		if victim.Cycles > plain.Cycles {
			t.Errorf("%s: victim buffer slowed sequential execution: %d vs %d",
				mc.Name, victim.Cycles, plain.Cycles)
		}
		if restr.Cycles >= victim.Cycles {
			t.Errorf("%s: restructuring (%d) should beat a victim cache (%d)",
				mc.Name, restr.Cycles, victim.Cycles)
		}
	}
}

func TestAmdahlShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: the Amdahl study sweeps serial fractions end to end")
	}
	r, err := Amdahl(context.Background(), machine.PentiumPro(4), testParams(), 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	one := r.Points[0]
	if one.Procs != 1 || one.StdSpeedup < 0.99 || one.StdSpeedup > 1.01 {
		t.Errorf("1-proc baseline = %+v", one)
	}
	last := r.Points[len(r.Points)-1]
	// The motivation, quantified: the sequential fraction grows with P...
	if last.SeqFraction <= one.SeqFraction {
		t.Errorf("sequential fraction did not grow: %.2f -> %.2f", one.SeqFraction, last.SeqFraction)
	}
	// ...the standard curve saturates below the cascaded one...
	if last.CascSpeedup <= last.StdSpeedup*1.2 {
		t.Errorf("cascading lifted the app only %.2f vs %.2f", last.CascSpeedup, last.StdSpeedup)
	}
	// ...and both improve on one processor.
	if last.StdSpeedup <= 1 || last.CascSpeedup <= 1 {
		t.Errorf("no app speedup at 4 procs: %+v", last)
	}

	var b strings.Builder
	r.Render(&b)
	r.RenderChart(&b)
	if !strings.Contains(b.String(), "Application speedup") {
		t.Error("render missing title")
	}
}

func TestRunParallelDistributesState(t *testing.T) {
	w := wave5.MustBuild(testParams())
	m := machine.MustNew(machine.PentiumPro(4))
	res, err := cascade.RunParallel(m, w.ParallelPhase(), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.ExecCycles < res.Cycles {
		t.Errorf("parallel result = %+v", res)
	}
	// Makespan is near ExecCycles/P for a balanced loop.
	ratio := float64(res.ExecCycles) / float64(res.Cycles)
	if ratio < 3.2 || ratio > 4.0 {
		t.Errorf("parallel efficiency = %.2f, want near 4 processors' worth", ratio)
	}
}

func TestGalleryShape(t *testing.T) {
	const n = 1 << 16
	g, err := Gallery(context.Background(), machine.R10000(8), n, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 6 {
		t.Fatalf("kernels = %d", len(g.Rows))
	}
	clean, _ := g.Find("triad")
	conflict, ok := g.Find("triad-conflict")
	if !ok {
		t.Fatal("triad-conflict missing")
	}
	// The conflicted placement must cost the sequential baseline far more
	// and restructuring must recover far more of it.
	if conflict.SeqCycles < clean.SeqCycles*4 {
		t.Errorf("conflict triad seq %d not >> clean %d", conflict.SeqCycles, clean.SeqCycles)
	}
	if conflict.RestructuredSpeed < clean.RestructuredSpeed*2 {
		t.Errorf("conflict restructure gain %.2f not >> clean %.2f",
			conflict.RestructuredSpeed, clean.RestructuredSpeed)
	}
	// Transpose (a gather the compiler cannot prefetch) must benefit.
	tr, _ := g.Find("transpose")
	if tr.RestructuredSpeed < 1.5 {
		t.Errorf("transpose restructured speedup = %.2f", tr.RestructuredSpeed)
	}
	var b strings.Builder
	g.Render(&b)
	if !strings.Contains(b.String(), "Kernel gallery") {
		t.Error("render missing title")
	}
}

package experiments

import (
	"context"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/wave5"
)

// testHolder is the one Holder of the package's sweep tests: its prefix
// cache lives as long as the test binary, so a PARMVR call that several
// tests make at one scale is simulated once. Tests that compare a cold
// path with a warm one keep private caches on the cold side.
var testHolder = NewHolder(NewPrefixCache(0), runtime.GOMAXPROCS(0))

// testCtx is a context whose sweeps run under testHolder.
func testCtx() context.Context {
	return WithHolder(context.Background(), testHolder)
}

// testParams shrinks PARMVR enough for fast tests while keeping every
// loop's structure (footprints still exceed the L1s).
func testParams() wave5.Params {
	return testRunConfig().Params()
}

// testRunConfig runs the decomposed sweeps at testParams' scale with the
// paper's best chunk size.
func testRunConfig() RunConfig {
	rc := DefaultRunConfig()
	rc.Scale = 0.05
	return rc
}

func TestStrategyString(t *testing.T) {
	if Sequential.String() != "Original Sequential" ||
		Prefetched.String() != "Prefetched" ||
		Restructured.String() != "Restructured" {
		t.Error("strategy labels do not match the paper's legends")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

func TestTable1Content(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{
		"PentiumPro", "R10000",
		"8KB", "512KB", "32KB", "2MB",
		"100-200", "58",
		"32 bytes", "128 bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestRunPARMVRSequentialDeterministic(t *testing.T) {
	p := testParams()
	r1, err := RunPARMVR(machine.PentiumPro(4), p, Sequential, cascade.DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPARMVR(machine.PentiumPro(4), p, Sequential, cascade.DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != wave5.NumLoops || len(r2) != wave5.NumLoops {
		t.Fatalf("loop counts: %d, %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Cycles != r2[i].Cycles {
			t.Errorf("loop %d nondeterministic: %d vs %d", i, r1[i].Cycles, r2[i].Cycles)
		}
	}
}

func TestRunPARMVRRejectsBadConfig(t *testing.T) {
	if _, err := RunPARMVR(machine.PentiumPro(0), testParams(), Sequential, 1024); err == nil {
		t.Error("expected error for bad machine config")
	}
	if _, err := RunPARMVR(machine.PentiumPro(2), wave5.Params{}, Sequential, 1024); err == nil {
		t.Error("expected error for bad workload params")
	}
}

// TestFig2Shape asserts the paper's Figure 2 claims (at reduced scale):
// restructuring wins overall on both machines, beats prefetching, gains
// from more processors, and prefetching alone gains ~nothing on the
// R10000 (the MIPSpro effect).
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: fig2 sweeps both machines at several processor counts")
	}
	res, err := Fig2(testCtx(), testRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	ppRes := res.Speedup("PentiumPro", Restructured, 4)
	ppPre := res.Speedup("PentiumPro", Prefetched, 4)
	rkRes := res.Speedup("R10000", Restructured, 8)
	rkPre := res.Speedup("R10000", Prefetched, 8)

	if ppRes <= 1.1 {
		t.Errorf("PentiumPro restructured speedup = %.2f, want noticeable (>1.1)", ppRes)
	}
	if rkRes <= 1.2 {
		t.Errorf("R10000 restructured speedup = %.2f, want noticeable (>1.2)", rkRes)
	}
	if ppRes <= ppPre {
		t.Errorf("PentiumPro: restructured (%.2f) should beat prefetched (%.2f)", ppRes, ppPre)
	}
	if rkRes <= rkPre {
		t.Errorf("R10000: restructured (%.2f) should beat prefetched (%.2f)", rkRes, rkPre)
	}
	if rkPre > 1.15 {
		t.Errorf("R10000 prefetched speedup = %.2f; paper found ~none (compiler prefetch)", rkPre)
	}
	// Processor scaling: 4 procs at least as good as 2 (small tolerance).
	if s2, s4 := res.Speedup("PentiumPro", Restructured, 2), ppRes; s4 < s2*0.97 {
		t.Errorf("PentiumPro restructured speedup fell with processors: %.2f@2p vs %.2f@4p", s2, s4)
	}

	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "Figure 2") {
		t.Error("render missing title")
	}
}

// TestBreakdownShape asserts the Figure 3-5 claims: restructuring reduces
// execution-phase cache misses dramatically and no loop slows down
// catastrophically.
func TestBreakdownShape(t *testing.T) {
	bs, err := Breakdowns(testCtx(), testRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b *BreakdownResult
	for _, r := range bs {
		if r.Machine == "PentiumPro" {
			b = r
		}
	}
	if b == nil || b.Procs != 4 {
		t.Fatalf("no 4-processor PentiumPro breakdown in %d results", len(bs))
	}
	if len(b.Stats[Sequential]) != wave5.NumLoops {
		t.Fatalf("loops = %d", len(b.Stats[Sequential]))
	}
	if red := b.MissReduction(Restructured); red < 0.5 {
		t.Errorf("restructured L2 miss reduction = %.0f%%, want most misses gone (paper: 93-94%%)", red*100)
	}
	for i := range b.Stats[Sequential] {
		seq := b.Stats[Sequential][i]
		res := b.Stats[Restructured][i]
		if seq.Cycles <= 0 {
			t.Errorf("loop %s: no sequential cycles", seq.Loop)
		}
		slowdown := float64(res.Cycles) / float64(seq.Cycles)
		if slowdown > 1.5 {
			t.Errorf("loop %s: restructured %.2fx slower than sequential (paper's worst: ~1.1x)",
				seq.Loop, slowdown)
		}
	}
	for _, render := range []func(io.Writer){b.RenderFig3, b.RenderFig4, b.RenderFig5} {
		var sb strings.Builder
		render(&sb)
		if !strings.Contains(sb.String(), "gather_ex") {
			t.Error("figure render missing loop rows")
		}
	}
}

// TestFig6Shape asserts Figure 6's claims: an interior optimum chunk size
// larger than L1, with degraded performance at the 2MB extreme.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: fig6 sweeps the full chunk-size grid")
	}
	res, err := Fig6(testCtx(), testRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range Machines() {
		bestChunk, bestSpeed := res.Best(mc.Name, Restructured)
		if bestSpeed <= 1 {
			t.Errorf("%s: best speedup %.2f <= 1", mc.Name, bestSpeed)
		}
		// The interior-optimum position (16-64KB in the paper) is a
		// full-scale property; at this test's reduced scale the cheap
		// 120-cycle PentiumPro transfer lets small chunks win there. The
		// R10000's 500-cycle transfer preserves the paper's shape even at
		// reduced scale.
		if mc.Name == "R10000" && bestChunk < 8*1024 {
			t.Errorf("%s: best chunk %d < 8KB; paper found optima at 16-64KB", mc.Name, bestChunk)
		}
		worst := res.Speedup(mc.Name, Restructured, 2048*1024)
		if worst >= bestSpeed {
			t.Errorf("%s: 2MB chunks (%.2f) not worse than best (%.2f)", mc.Name, worst, bestSpeed)
		}
	}
	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "Figure 6") {
		t.Error("render missing title")
	}
}

// TestFig7Shape asserts Figure 7's claims at reduced scale: the sparse
// (more memory-bound) variant speeds up more than the dense one, and
// restructuring at least matches prefetching at the peak.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: fig7 runs the synthetic gallery at a past-L2 array size")
	}
	rc := DefaultRunConfig()
	rc.N = 1 << 17 // 512KB arrays: past both L2s at test scale
	res, err := Fig7(testCtx(), rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range Machines() {
		dense := res.Peak(mc.Name, "dense")
		sparse := res.Peak(mc.Name, "sparse(k=8)")
		if dense <= 1.5 {
			t.Errorf("%s: dense peak %.2f, want clear speedup", mc.Name, dense)
		}
		if sparse <= dense {
			t.Errorf("%s: sparse peak %.2f not above dense %.2f", mc.Name, sparse, dense)
		}
	}
	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestAblationJumpOut(t *testing.T) {
	a := studyOf(t, "jump-out")
	for _, mc := range Machines() {
		jump, ok1 := a.Find(mc.Name, "jump out on signal")
		wait, ok2 := a.Find(mc.Name, "wait for helper completion")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing rows", mc.Name)
		}
		if jump.Cycles > wait.Cycles {
			t.Errorf("%s: jump-out (%d) slower than waiting (%d)", mc.Name, jump.Cycles, wait.Cycles)
		}
	}
}

func TestAblationPrecompute(t *testing.T) {
	a := studyOf(t, "precomputation")
	for _, mc := range Machines() {
		raw, ok1 := a.Find(mc.Name, "store raw operands")
		pre, ok2 := a.Find(mc.Name, "precompute in helper")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing rows", mc.Name)
		}
		// Precomputation moves Pre cycles off the critical path; it should
		// not lose (small tolerance for cache noise).
		if float64(pre.Cycles) > float64(raw.Cycles)*1.02 {
			t.Errorf("%s: precompute (%d) worse than raw (%d)", mc.Name, pre.Cycles, raw.Cycles)
		}
	}
}

func TestAblationChunking(t *testing.T) {
	a := studyOf(t, "chunk sizing")
	strictWin := false
	for _, mc := range Machines() {
		budget, ok1 := a.Find(mc.Name, "64KB byte budget")
		block, ok2 := a.Find(mc.Name, "one block per processor")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing rows", mc.Name)
		}
		// At the reduced test scale the two policies can come close on one
		// machine; byte-budget chunking must never be meaningfully worse
		// and must win clearly somewhere.
		if float64(budget.Cycles) > float64(block.Cycles)*1.05 {
			t.Errorf("%s: byte-budget chunks (%d) worse than block partitioning (%d)",
				mc.Name, budget.Cycles, block.Cycles)
		}
		if float64(budget.Cycles) < float64(block.Cycles)*0.98 {
			strictWin = true
		}
	}
	if !strictWin {
		t.Error("byte-budget chunking should clearly beat block partitioning on at least one machine")
	}
}

func TestAblationCompilerPrefetch(t *testing.T) {
	a := studyOf(t, "compiler prefetching")
	on, ok1 := a.Find("R10000", "MIPSpro prefetch on (prefetched helper)")
	off, ok2 := a.Find("R10000", "MIPSpro prefetch off (prefetched helper)")
	if !ok1 || !ok2 {
		t.Fatal("missing rows")
	}
	// The paper's hypothesis: with compiler prefetching the helper gains
	// ~nothing; without it, the helper should show a clear win.
	if on.Speedup > 1.15 {
		t.Errorf("prefetch helper gains %.2f with MIPSpro prefetch on; expected ~1", on.Speedup)
	}
	if off.Speedup <= on.Speedup {
		t.Errorf("prefetch helper should matter more without compiler prefetch: %.2f vs %.2f",
			off.Speedup, on.Speedup)
	}
	var b strings.Builder
	a.Render(&b)
	if !strings.Contains(b.String(), "Ablation") {
		t.Error("render missing title")
	}
}

func TestAblationTLB(t *testing.T) {
	a := studyOf(t, "TLB")
	for _, mc := range Machines() {
		on, ok1 := a.Find(mc.Name, "TLB modelled")
		off, ok2 := a.Find(mc.Name, "TLB disabled")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing rows", mc.Name)
		}
		if on.Cycles <= off.Cycles {
			t.Errorf("%s: TLB walks added no cycles (%d vs %d)", mc.Name, on.Cycles, off.Cycles)
		}
		// These loops have good page locality; translation must be a
		// small fraction of the total.
		if float64(on.Cycles) > 1.25*float64(off.Cycles) {
			t.Errorf("%s: TLB cost implausibly high: %d vs %d", mc.Name, on.Cycles, off.Cycles)
		}
	}
}

var (
	ablationsOnce sync.Once
	ablationsRes  []*AblationResult
	ablationsErr  error
)

// studyOf returns the study whose name contains name, from one
// ablations run at the test scale that every ablation test shares.
func studyOf(t *testing.T, name string) *AblationResult {
	t.Helper()
	ablationsOnce.Do(func() { ablationsRes, ablationsErr = Ablations(testCtx(), testRunConfig()) })
	if ablationsErr != nil {
		t.Fatal(ablationsErr)
	}
	for _, a := range ablationsRes {
		if strings.Contains(a.Name, name) {
			return a
		}
	}
	t.Fatalf("no ablation study %q", name)
	return nil
}

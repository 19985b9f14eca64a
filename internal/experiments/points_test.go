package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/wave5"
)

// renderIndented marshals exactly as the serving layer renders results
// (indented, trailing newline), so byte comparisons here prove the same
// identity the fabric's merged responses rely on.
func renderIndented(t *testing.T, v interface{}) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDecomposedFig6MatchesDriver pins the fabric's core identity: the
// chunk-size sweep decomposed into wire-serialized points, each loaded
// from a shared prefix's packed start states, and merged back is
// byte-identical to a per-point driver that simulates every loop's prior
// parallel section (coldPointSweep), and so is the Fig6 entry point.
func TestDecomposedFig6MatchesDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02

	want := renderIndented(t, coldPointSweep(t, "fig6", rc, machine.EngineFast))

	merged := warmOverWire(t, ctx, NewPrefixCache(0), "fig6", rc)
	if got := renderIndented(t, merged); !bytes.Equal(got, want) {
		t.Errorf("decomposed fig6 differs from driver:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	fig6, err := Fig6(testCtx(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderIndented(t, fig6); !bytes.Equal(got, want) {
		t.Error("Fig6 differs from driver")
	}
}

// TestDecomposedFig2MatchesDriver is the fig2 twin, and additionally
// checks RunDecomposed (the single-node driver the fabric's golden
// comparisons use) and the point-progress reporting contract.
func TestDecomposedFig2MatchesDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	rc := DefaultRunConfig()
	rc.Scale = 0.02

	var mu sync.Mutex
	var lastDone, lastTotal int
	ctx := WithPointProgress(context.Background(), func(done, total int) {
		mu.Lock()
		lastDone, lastTotal = done, total
		mu.Unlock()
	})

	want := renderIndented(t, coldPointSweep(t, "fig2", rc, machine.EngineFast))

	merged := warmOverWire(t, ctx, NewPrefixCache(0), "fig2", rc)
	if got := renderIndented(t, merged); !bytes.Equal(got, want) {
		t.Errorf("decomposed fig2 differs from driver:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// The shared holder's calls were simulated by other tests, if any.
	local, ok, err := RunDecomposed(WithHolder(ctx, testHolder), "fig2", rc)
	if !ok || err != nil {
		t.Fatalf("RunDecomposed = ok=%v err=%v", ok, err)
	}
	if got := renderIndented(t, local); !bytes.Equal(got, want) {
		t.Error("RunDecomposed fig2 differs from driver")
	}

	mu.Lock()
	defer mu.Unlock()
	if lastTotal == 0 || lastDone != lastTotal {
		t.Errorf("point progress never completed a phase: done=%d total=%d", lastDone, lastTotal)
	}
}

// TestDecomposeDeterministic pins that point plans are stable: two calls
// produce identical specs, and every spec round-trips through JSON
// unchanged — a prerequisite for content-addressing points by their
// canonical spec hash on different nodes.
func TestDecomposeDeterministic(t *testing.T) {
	rc := DefaultRunConfig()
	for _, name := range DecomposableExperiments() {
		a, _ := Decompose(name, rc)
		b, _ := Decompose(name, rc)
		if len(a) == 0 {
			t.Errorf("%s: empty point plan", name)
			continue
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: point plan not deterministic", name)
		}
		for i, spec := range a {
			if spec.Index != i {
				t.Errorf("%s: spec %d has index %d", name, i, spec.Index)
			}
			if spec.Experiment != name {
				t.Errorf("%s: spec %d names experiment %q", name, i, spec.Experiment)
			}
		}
	}
	if len(DecomposableExperiments()) < 2 {
		t.Errorf("DecomposableExperiments = %v, want at least fig2 and fig6", DecomposableExperiments())
	}
}

// TestPointSpecsValidate pins that PointSpec.Validate accepts every spec
// every built-in decomposition plans, over several run configurations,
// and refuses each out-of-range field.
func TestPointSpecsValidate(t *testing.T) {
	for _, rc := range []RunConfig{
		DefaultRunConfig(),
		{Scale: 0.01, ChunkBytes: 4 << 10, N: 1 << 10},
		{Scale: 2, ChunkBytes: 256 << 10, N: 1 << 16},
	} {
		for _, e := range Registry() {
			specs, _ := Decompose(e.Name, rc)
			for _, ps := range specs {
				if err := ps.Validate(); err != nil {
					t.Errorf("%s at %+v: point %d: %v", e.Name, rc, ps.Index, err)
				}
			}
		}
	}

	specs, _ := Decompose("fig6", DefaultRunConfig())
	good := specs[len(specs)-1]
	if good.Strategy == Sequential.Token() {
		t.Fatalf("last fig6 point %+v is sequential, want a cascaded one", good)
	}
	for name, bad := range map[string]func(*PointSpec){
		"index":       func(ps *PointSpec) { ps.Index = -1 },
		"machine":     func(ps *PointSpec) { ps.Machine = "Nope" },
		"procs":       func(ps *PointSpec) { ps.Procs = 0 },
		"strategy":    func(ps *PointSpec) { ps.Strategy = "bogus" },
		"scale":       func(ps *PointSpec) { ps.Scale = -1 },
		"chunk_kb":    func(ps *PointSpec) { ps.ChunkKB = 0 },
		"neg chunk":   func(ps *PointSpec) { ps.ChunkKB = -64 },
		"chunk_bytes": func(ps *PointSpec) { ps.ChunkBytes = -1 },
		"n":           func(ps *PointSpec) { ps.N = -1 },
		"warmup":      func(ps *PointSpec) { ps.Warmup = -1 },
	} {
		ps := good
		bad(&ps)
		if err := ps.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, ps)
		}
	}
}

// TestStrategyTokens pins the spec tokens (they feed point keys — a
// change would silently invalidate every cached point) and their parse
// inverse.
func TestStrategyTokens(t *testing.T) {
	want := map[Strategy]string{Sequential: "sequential", Prefetched: "prefetched", Restructured: "restructured"}
	for s, tok := range want {
		if got := s.Token(); got != tok {
			t.Errorf("%v.Token() = %q, want %q", s, got, tok)
		}
		parsed, err := ParseStrategy(tok)
		if err != nil || parsed != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", tok, parsed, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted a bogus token")
	}
}

// TestBreakdownMergeRejectsShortLoops pins that a fig3-5 merge refuses a
// point result (from a worker, over the wire) whose per-loop rows do not
// cover every loop, rather than rendering a table that indexes past them.
func TestBreakdownMergeRejectsShortLoops(t *testing.T) {
	rc := DefaultRunConfig()
	specs, _ := Decompose("fig3", rc)
	results := make([]PointResult, len(specs))
	for i := range results {
		results[i] = PointResult{Index: i, Loops: make([]LoopResult, wave5.NumLoops)}
	}
	if _, err := MergePoints("fig3", rc, results); err != nil {
		t.Fatalf("complete results: %v", err)
	}
	results[1].Loops = results[1].Loops[:3]
	if _, err := MergePoints("fig3", rc, results); err == nil {
		t.Error("merge accepted a point with 3 of 15 loops")
	}
}

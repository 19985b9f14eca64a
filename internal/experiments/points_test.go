package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
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

// TestRunPointRefusesUnreadFields pins that a PARMVR call point runs
// only the spec it names. A configuration that changes the machine or
// the start state, and a chunk_bytes, warmup or n, are read by no
// fig2-fig6 point, so RunPoint refuses them instead of returning the
// plain call's bytes. The warm path refuses them too, after the plain
// call is in its memo under the same strategy, chunk and variant.
// Ablations rows that change the machine refuse the unread fields.
func TestRunPointRefusesUnreadFields(t *testing.T) {
	ctx := context.Background()
	rc := RunConfig{Scale: 0.01, ChunkBytes: 64 << 10, N: 1 << 10}
	c := NewPrefixCache(0)
	for _, exp := range []string{"fig2", "fig3", "fig6"} {
		specs, _ := Decompose(exp, rc)
		good := specs[len(specs)-1]
		if _, warm, err := c.RunPoint(ctx, good); err != nil || !warm {
			t.Fatalf("%s plain point: warm=%v err=%v", exp, warm, err)
		}
		for _, tc := range []struct {
			name string
			set  func(*PointSpec)
		}{
			{"no-tlb", func(ps *PointSpec) { ps.Variant = ablNoTLB }},
			{"victim", func(ps *PointSpec) { ps.Variant = ablVictim }},
			{"cold-caches", func(ps *PointSpec) { ps.Variant = ablCold }},
			{"no-compiler-prefetch", func(ps *PointSpec) { ps.Variant = ablNoPrefetch }},
			{"chunk_bytes", func(ps *PointSpec) { ps.ChunkBytes = 4096 }},
			{"warmup", func(ps *PointSpec) { ps.Warmup = 3 }},
			{"n", func(ps *PointSpec) { ps.N = 7 }},
		} {
			ps := good
			tc.set(&ps)
			if err := ps.Validate(); err != nil {
				t.Fatalf("%s %s: %v, want a spec Validate passes", exp, tc.name, err)
			}
			if r, err := RunPoint(ctx, ps); err == nil {
				t.Errorf("%s %s: RunPoint ran it (%d cycles), want a refusal", exp, tc.name, r.Cycles)
			}
			if r, _, err := c.RunPoint(ctx, ps); err == nil {
				t.Errorf("%s %s: the warm path ran it (%d cycles), want a refusal", exp, tc.name, r.Cycles)
			}
		}
	}
	// An ablations row that changes the machine runs off no prefix, and
	// refuses the same unread fields on its own path.
	specs, _ := Decompose("ablations", rc)
	for _, ps := range specs {
		if _, ok := ablationPrefix(ps); ok {
			continue
		}
		ps.Warmup = 3
		if r, err := RunPoint(ctx, ps); err == nil {
			t.Fatalf("ablations %s point %d with warmup 3: ran it (%d cycles), want a refusal", ps.Variant, ps.Index, r.Cycles)
		}
	}
}

// TestFig7AndConflictsRefuseUnreadFields pins that points refuse spec
// fields they do not read, like the PARMVR call points, instead of
// returning the plain point's bytes under a key of their own or failing
// on a field they do read: fig7, conflicts, warmsweep, amdahl, gallery,
// quickstart and table1. Every refused spec passes Validate, and the
// refusal names the field; the canonical specs run in the golden tests.
func TestFig7AndConflictsRefuseUnreadFields(t *testing.T) {
	ctx := context.Background()
	rc := RunConfig{Scale: 0.01, N: 1 << 10, ChunkBytes: 64 << 10}
	first := func(exp string) PointSpec {
		specs, ok := Decompose(exp, rc)
		if !ok {
			t.Fatalf("no decomposition %q", exp)
		}
		return specs[0]
	}
	fig7, _ := Decompose("fig7", rc)
	seq, casc := fig7[0], fig7[len(fig7)-1]
	conf := first("conflicts")
	warm, _ := Decompose("warmsweep", rc)
	warmSeq, warmCasc := warm[0], warm[len(warm)-1]
	amdahl, _ := Decompose("amdahl", rc)
	amdahlSeq, amdahlCasc := amdahl[0], amdahl[2]
	gal, qs, tab := first("gallery"), first("quickstart"), first("table1")
	c := NewPrefixCache(0)
	for _, tc := range []struct {
		name string
		base PointSpec
		set  func(*PointSpec)
		want string
	}{
		{"fig7 procs", casc, func(ps *PointSpec) { ps.Procs = 1 }, "procs 1"},
		{"fig7 chunk_bytes", casc, func(ps *PointSpec) { ps.ChunkBytes = 4096 }, "chunk_bytes 4096"},
		{"fig7 warmup", casc, func(ps *PointSpec) { ps.Warmup = 3 }, "warmup 3"},
		{"fig7 scale", casc, func(ps *PointSpec) { ps.Scale = 7 }, "scale 7"},
		{"fig7 sequential chunk_kb", seq, func(ps *PointSpec) { ps.ChunkKB = 8 }, "chunk_kb 8"},
		{"conflicts no strategy", conf, func(ps *PointSpec) { ps.Strategy = "" }, `strategy ""`},
		{"conflicts restructured", conf, func(ps *PointSpec) { ps.Strategy, ps.ChunkKB = Restructured.Token(), 64 }, `strategy "restructured"`},
		{"conflicts chunk_kb", conf, func(ps *PointSpec) { ps.ChunkKB = 64 }, "chunk_kb 64"},
		{"conflicts chunk_bytes", conf, func(ps *PointSpec) { ps.ChunkBytes = 4096 }, "chunk_bytes 4096"},
		{"conflicts warmup", conf, func(ps *PointSpec) { ps.Warmup = 3 }, "warmup 3"},
		{"conflicts n", conf, func(ps *PointSpec) { ps.N = 7 }, "n 7"},
		{"conflicts variant", conf, func(ps *PointSpec) { ps.Variant = ablNoTLB }, `variant "no-tlb"`},
		{"warmsweep chunk_kb only", warmCasc, func(ps *PointSpec) { ps.ChunkBytes, ps.ChunkKB = 0, 64 }, "chunk_kb 64"},
		{"warmsweep chunk_kb", warmCasc, func(ps *PointSpec) { ps.ChunkKB = 7 }, "chunk_kb 7"},
		{"warmsweep n", warmSeq, func(ps *PointSpec) { ps.N = 5 }, "n 5"},
		{"warmsweep variant", warmSeq, func(ps *PointSpec) { ps.Variant = ablNoTLB }, `variant "no-tlb"`},
		{"warmsweep sequential chunk_bytes", warmSeq, func(ps *PointSpec) { ps.ChunkBytes = 4096 }, "chunk_bytes 4096"},
		{"amdahl prefetched", amdahlCasc, func(ps *PointSpec) { ps.Strategy = Prefetched.Token() }, `strategy "prefetched"`},
		{"amdahl restructured on 1 proc", amdahlCasc, func(ps *PointSpec) { ps.Procs = 1 }, "procs 1"},
		{"amdahl n", amdahlSeq, func(ps *PointSpec) { ps.N = 5 }, "n 5"},
		{"amdahl variant", amdahlSeq, func(ps *PointSpec) { ps.Variant = ablNoTLB }, `variant "no-tlb"`},
		{"amdahl chunk_bytes", amdahlSeq, func(ps *PointSpec) { ps.ChunkBytes = 4096 }, "chunk_bytes 4096"},
		{"amdahl warmup", amdahlSeq, func(ps *PointSpec) { ps.Warmup = 2 }, "warmup 2"},
		{"gallery strategy", gal, func(ps *PointSpec) { ps.Strategy = Sequential.Token() }, `strategy "sequential"`},
		{"gallery scale", gal, func(ps *PointSpec) { ps.Scale = 0.5 }, "scale 0.5"},
		{"gallery chunk_bytes", gal, func(ps *PointSpec) { ps.ChunkBytes = 4096 }, "chunk_bytes 4096"},
		{"gallery warmup", gal, func(ps *PointSpec) { ps.Warmup = 2 }, "warmup 2"},
		{"quickstart strategy", qs, func(ps *PointSpec) { ps.Strategy = Sequential.Token() }, `strategy "sequential"`},
		{"quickstart variant", qs, func(ps *PointSpec) { ps.Variant = ablNoTLB }, `variant "no-tlb"`},
		{"quickstart chunk_bytes", qs, func(ps *PointSpec) { ps.ChunkBytes = 4096 }, "chunk_bytes 4096"},
		{"quickstart warmup", qs, func(ps *PointSpec) { ps.Warmup = 2 }, "warmup 2"},
		{"table1 strategy", tab, func(ps *PointSpec) { ps.Strategy = Sequential.Token() }, `strategy "sequential"`},
		{"table1 chunk_kb", tab, func(ps *PointSpec) { ps.ChunkKB = 64 }, "chunk_kb 64"},
		{"table1 chunk_bytes", tab, func(ps *PointSpec) { ps.ChunkBytes = 4096 }, "chunk_bytes 4096"},
		{"table1 n", tab, func(ps *PointSpec) { ps.N = 5 }, "n 5"},
		{"table1 warmup", tab, func(ps *PointSpec) { ps.Warmup = 2 }, "warmup 2"},
		{"table1 variant", tab, func(ps *PointSpec) { ps.Variant = ablNoTLB }, `variant "no-tlb"`},
	} {
		ps := tc.base
		tc.set(&ps)
		if err := ps.Validate(); err != nil {
			t.Fatalf("%s: %v, want a spec Validate passes", tc.name, err)
		}
		r, _, err := c.Run(ctx, ps)
		if err == nil {
			t.Errorf("%s: ran it (%d cycles), want a refusal", tc.name, r.Cycles)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
}

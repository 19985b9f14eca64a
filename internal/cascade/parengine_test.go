package cascade

import (
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// denseLoop builds a fully affine, reentrant streaming loop whose chunk
// footprints are line-disjoint when the chunk size keeps boundaries
// line-aligned — the parallel engine's best case.
func denseLoop(iters int) (*memsim.Space, *loopir.Loop) {
	s := memsim.NewSpace()
	a := s.Alloc("A", iters, 8, 64)
	b := s.Alloc("B", iters, 8, 64)
	out := s.Alloc("OUT", iters, 8, 64)
	a.Fill(func(i int) float64 { return float64(i % 97) })
	b.Fill(func(i int) float64 { return float64(i % 89) })
	l := &loopir.Loop{
		Name:  "dense",
		Iters: iters,
		RO: []loopir.Ref{
			{Array: a, Index: loopir.Ident},
			{Array: b, Index: loopir.Ident},
		},
		Writes:    []loopir.Ref{{Array: out, Index: loopir.Ident}},
		PreCycles: 4, FinalCycles: 2,
		NPre: 1,
		NewPre: func() func(int, []float64) []float64 {
			return func(_ int, ro []float64) []float64 {
				return []float64{ro[0] + 2*ro[1]}
			}
		},
		NewFinal: func() func(int, []float64, []float64) []float64 {
			return func(_ int, pre, _ []float64) []float64 { return pre }
		},
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return s, l
}

// accumLoop builds a loop whose every chunk writes the same one-element
// accumulator line, so no two chunks can ever be admitted together.
func accumLoop(iters int) (*memsim.Space, *loopir.Loop) {
	s := memsim.NewSpace()
	a := s.Alloc("A", iters, 8, 64)
	acc := s.Alloc("ACC", 1, 8, 64)
	a.Fill(func(i int) float64 { return float64(i % 61) })
	accRef := loopir.Ref{Array: acc, Index: loopir.Affine{}}
	l := &loopir.Loop{
		Name:  "accum",
		Iters: iters,
		RO:    []loopir.Ref{{Array: a, Index: loopir.Ident}},
		RW:    []loopir.Ref{accRef},
		Writes: []loopir.Ref{
			accRef,
		},
		PreCycles: 3, FinalCycles: 2,
		NPre: 1,
		NewPre: func() func(int, []float64) []float64 {
			return func(_ int, ro []float64) []float64 { return []float64{ro[0] * ro[0]} }
		},
		NewFinal: func() func(int, []float64, []float64) []float64 {
			return func(_ int, pre, rw []float64) []float64 { return []float64{rw[0] + pre[0]} }
		},
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return s, l
}

// captureEngaged installs the engagement hook for one test.
func captureEngaged(t *testing.T) *[2]int {
	t.Helper()
	var got [2]int
	called := false
	parEngaged = func(admitted, solo int) {
		got = [2]int{admitted, solo}
		called = true
	}
	t.Cleanup(func() {
		parEngaged = nil
		_ = called
	})
	return &got
}

// parOpts builds options under which the parallel engine may engage.
func parOpts(t *testing.T, h Helper, space *memsim.Space, chunkBytes int, jumpOut bool) Options {
	t.Helper()
	opts := DefaultOptions(h, space)
	opts.ChunkBytes = chunkBytes
	opts.JumpOut = jumpOut
	opts.PriorParallel = false
	return opts
}

// TestParallelEngineEngagesAndMatchesSerial is the direct differential:
// a dense loop with line-aligned chunk boundaries must be simulated
// concurrently (every chunk admitted, none solo) and produce a Result
// bit-identical to the serial driver's, for both helpers and both jump-out
// settings.
func TestParallelEngineEngagesAndMatchesSerial(t *testing.T) {
	// 24 bytes/iter and 32-byte lines: chunkBytes a multiple of 96 keeps
	// every array's chunk boundary line-aligned.
	const iters, chunkBytes = 4000, 1920
	for _, h := range []Helper{HelperPrefetch, HelperRestructure} {
		for _, jumpOut := range []bool{true, false} {
			sSer, lSer := denseLoop(iters)
			sPar, lPar := denseLoop(iters)
			mSer := machine.MustNew(machine.PentiumPro(8))
			mPar := machine.MustNew(machine.PentiumPro(8).WithParallel(machine.ParallelOn))

			ser, err := Run(mSer, lSer, parOpts(t, h, sSer, chunkBytes, jumpOut))
			if err != nil {
				t.Fatal(err)
			}
			got := captureEngaged(t)
			par, err := Run(mPar, lPar, parOpts(t, h, sPar, chunkBytes, jumpOut))
			if err != nil {
				t.Fatal(err)
			}
			label := h.String()
			if !jumpOut {
				label += "/nojump"
			}
			if got[0] == 0 {
				t.Errorf("%s: parallel engine admitted no chunks (solo %d)", label, got[1])
			}
			if got[1] != 0 {
				t.Errorf("%s: expected full admission, got %d solo chunks", label, got[1])
			}
			resultDiff(t, label, par, ser)
			if eq, idx := lPar.Writes[0].Array.Equal(lSer.Writes[0].Array.Snapshot()); !eq {
				t.Errorf("%s: outputs diverge at element %d", label, idx)
			}
			parEngaged = nil
		}
	}
}

// denseLoopAligned is denseLoop with caller-controlled array alignment,
// so tests can place array bases on (or off) L2-line boundaries.
func denseLoopAligned(iters, align int) (*memsim.Space, *loopir.Loop) {
	s := memsim.NewSpace()
	a := s.Alloc("A", iters, 8, align)
	b := s.Alloc("B", iters, 8, align)
	out := s.Alloc("OUT", iters, 8, align)
	a.Fill(func(i int) float64 { return float64(i % 97) })
	b.Fill(func(i int) float64 { return float64(i % 89) })
	l := &loopir.Loop{
		Name:  "dense",
		Iters: iters,
		RO: []loopir.Ref{
			{Array: a, Index: loopir.Ident},
			{Array: b, Index: loopir.Ident},
		},
		Writes:    []loopir.Ref{{Array: out, Index: loopir.Ident}},
		PreCycles: 4, FinalCycles: 2,
		NPre: 1,
		NewPre: func() func(int, []float64) []float64 {
			return func(_ int, ro []float64) []float64 {
				return []float64{ro[0] + 2*ro[1]}
			}
		},
		NewFinal: func() func(int, []float64, []float64) []float64 {
			return func(_ int, pre, _ []float64) []float64 { return pre }
		},
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return s, l
}

// TestParallelEnginePrefetchBoundarySnapping is the differential for the
// R10000 admission gap: with compiler prefetch on, a chunk budget whose
// raw iteration count straddles L2 lines used to leave every chunk pair
// sharing boundary lines (and the old reach-extended footprints overlapped
// outright), so dense sweeps ran solo. Boundary snapping rounds the chunk
// size down to the loop's alignment quantum — 16 iterations here
// (128 B L2 line / 8 B elements) — and the wind-down model keeps every
// prefetch inside the tight span, so the same sweep is now fully admitted
// and still bit-identical to the serial driver.
func TestParallelEnginePrefetchBoundarySnapping(t *testing.T) {
	// 1000 B / 24 B-per-iter = 41 iterations — deliberately not a
	// multiple of the 16-iteration quantum, so admission depends on the
	// snapping pass, not on a lucky budget.
	const iters, chunkBytes = 4000, 1000
	if align := chunkAlign(machine.R10000(8), func() *loopir.Loop {
		_, l := denseLoopAligned(iters, 128)
		return l
	}()); align != 16 {
		t.Fatalf("chunkAlign = %d, want 16", align)
	}
	for _, h := range []Helper{HelperPrefetch, HelperRestructure} {
		sSer, lSer := denseLoopAligned(iters, 128)
		sPar, lPar := denseLoopAligned(iters, 128)
		mSer := machine.MustNew(machine.R10000(8))
		mPar := machine.MustNew(machine.R10000(8).WithParallel(machine.ParallelOn))

		ser, err := Run(mSer, lSer, parOpts(t, h, sSer, chunkBytes, true))
		if err != nil {
			t.Fatal(err)
		}
		got := captureEngaged(t)
		par, err := Run(mPar, lPar, parOpts(t, h, sPar, chunkBytes, true))
		if err != nil {
			t.Fatal(err)
		}
		label := "r10000/" + h.String()
		if got[0] == 0 {
			t.Errorf("%s: no chunks admitted (solo %d); snapping did not close the gap", label, got[1])
		}
		if got[1] != 0 {
			t.Errorf("%s: expected full admission, got %d solo chunks", label, got[1])
		}
		resultDiff(t, label, par, ser)
		if eq, idx := lPar.Writes[0].Array.Equal(lSer.Writes[0].Array.Snapshot()); !eq {
			t.Errorf("%s: outputs diverge at element %d", label, idx)
		}
		parEngaged = nil
	}
	// A written array based mid-L2-line admits no quantum; the snapped
	// split must then degrade to the plain one.
	sOff := memsim.NewSpace()
	aOff := sOff.Alloc("A", iters, 8, 128)
	outOff := sOff.AllocAt("OUT", iters, 8, 64, 128)
	lOff := &loopir.Loop{
		Name: "offdense", Iters: iters,
		RO:     []loopir.Ref{{Array: aOff, Index: loopir.Ident}},
		Writes: []loopir.Ref{{Array: outOff, Index: loopir.Ident}},
	}
	if align := chunkAlign(machine.R10000(8), lOff); align != 1 {
		t.Errorf("chunkAlign on a mid-line write base = %d, want 1", align)
	}
}

// TestParallelEngineSoloFallback: when every chunk writes one shared
// accumulator line, only the first chunk can be admitted; the rest must
// run inline through the serial body — and the Result must still be
// bit-identical.
func TestParallelEngineSoloFallback(t *testing.T) {
	const iters, chunkBytes = 2000, 960
	sSer, lSer := accumLoop(iters)
	sPar, lPar := accumLoop(iters)
	ser, err := Run(machine.MustNew(machine.PentiumPro(4)), lSer, parOpts(t, HelperPrefetch, sSer, chunkBytes, true))
	if err != nil {
		t.Fatal(err)
	}
	got := captureEngaged(t)
	par, err := Run(machine.MustNew(machine.PentiumPro(4).WithParallel(machine.ParallelOn)),
		lPar, parOpts(t, HelperPrefetch, sPar, chunkBytes, true))
	if err != nil {
		t.Fatal(err)
	}
	if got[0]+got[1] == 0 {
		t.Fatal("parallel engine did not run")
	}
	if got[1] == 0 {
		t.Errorf("expected solo fallbacks for conflicting chunks, got admitted=%d solo=%d", got[0], got[1])
	}
	resultDiff(t, "accum", par, ser)
	if eq, idx := lPar.Writes[0].Array.Equal(lSer.Writes[0].Array.Snapshot()); !eq {
		t.Errorf("outputs diverge at element %d", idx)
	}
}

// TestParallelEngineGates: configurations that cannot be proven safe must
// fall back to the fully serial driver (engine never constructed).
func TestParallelEngineGates(t *testing.T) {
	const iters, chunkBytes = 2000, 960
	cases := []struct {
		name string
		cfg  machine.Config
		prep func(*Options, *loopir.Loop)
	}{
		{"knob-off", machine.PentiumPro(4), nil},
		{"one-proc", machine.PentiumPro(1).WithParallel(machine.ParallelOn), nil},
		{"prior-parallel", machine.PentiumPro(4).WithParallel(machine.ParallelOn),
			func(o *Options, _ *loopir.Loop) { o.PriorParallel = true }},
		{"keep-state", machine.PentiumPro(4).WithParallel(machine.ParallelOn),
			func(o *Options, _ *loopir.Loop) { o.KeepState = true }},
		{"non-reentrant", machine.PentiumPro(4).WithParallel(machine.ParallelOn),
			func(_ *Options, l *loopir.Loop) { l.NewPre, l.NewFinal = nil, nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, l := denseLoop(iters)
			opts := parOpts(t, HelperPrefetch, s, chunkBytes, true)
			if tc.prep != nil {
				tc.prep(&opts, l)
			}
			got := captureEngaged(t)
			if _, err := Run(machine.MustNew(tc.cfg), l, opts); err != nil {
				t.Fatal(err)
			}
			if got[0]+got[1] != 0 {
				t.Errorf("engine engaged (admitted=%d solo=%d); want serial fallback", got[0], got[1])
			}
		})
	}
}

// TestLoopShapesRejectsUnknownIndex: an index expression the footprint
// analysis does not know defeats the whole-loop analysis.
type opaqueIndex struct{ loopir.Affine }

func TestLoopShapesRejectsUnknownIndex(t *testing.T) {
	s := memsim.NewSpace()
	a := s.Alloc("A", 64, 8, 64)
	l := &loopir.Loop{
		Name: "opaque", Iters: 64,
		RO: []loopir.Ref{{Array: a, Index: opaqueIndex{loopir.Ident}}},
	}
	if _, ok := loopShapes(l); ok {
		t.Error("loopShapes accepted an unknown index expression")
	}
}

// TestFootprintSpans pins the span algebra: normalization merges
// overlapping and adjacent runs, and the overlap walk detects exactly the
// sharing cases the admission predicate cares about.
func TestFootprintSpans(t *testing.T) {
	n := normalize([]span{{lo: 256, hi: 320}, {lo: 0, hi: 64}, {lo: 64, hi: 128}, {lo: 32, hi: 96}})
	want := []span{{lo: 0, hi: 128}, {lo: 256, hi: 320}}
	if len(n) != len(want) || n[0] != want[0] || n[1] != want[1] {
		t.Errorf("normalize = %v, want %v", n, want)
	}
	if spansOverlap(n, []span{{lo: 128, hi: 256}}) {
		t.Error("disjoint spans reported overlapping")
	}
	if !spansOverlap(n, []span{{lo: 300, hi: 301}}) {
		t.Error("contained span not reported overlapping")
	}
}

// TestFootprintChunkSpans pins the per-chunk footprint construction:
// affine references get tight line-aligned ranges (prefetch wind-down
// guarantees no access lands beyond them), indirect references cover the
// table walk tightly plus the whole target array.
func TestFootprintChunkSpans(t *testing.T) {
	s := memsim.NewSpace()
	a := s.Alloc("A", 1024, 8, 4096)
	tbl := s.Alloc("T", 1024, 4, 4096)
	g := s.Alloc("G", 1024, 8, 4096)
	l := &loopir.Loop{
		Name: "mix", Iters: 1024,
		RO: []loopir.Ref{
			{Array: a, Index: loopir.Ident},
			{Array: g, Index: loopir.Indirect{Tbl: tbl, Entry: loopir.Ident}},
		},
	}
	shapes, ok := loopShapes(l)
	if !ok {
		t.Fatal("loopShapes rejected an analyzable loop")
	}
	const l2 = 32
	fp := chunkFoot(shapes, Chunk{Lo: 8, Hi: 16}, l2, nil)
	if len(fp.wr) != 0 {
		t.Errorf("read-only loop has write spans: %v", fp.wr)
	}
	find := func(arr *memsim.Array) (span, bool) {
		base := arr.Base()
		end := base + memsim.Addr(arr.SizeBytes())
		for _, sp := range fp.rd {
			if sp.lo >= base && sp.hi <= end {
				return sp, true
			}
		}
		return span{}, false
	}
	// A: elements [8,16) = bytes [64,128), tight.
	if sp, ok := find(a); !ok || sp.lo != a.Base()+64 || sp.hi != a.Base()+128 {
		t.Errorf("affine span = %v (base %v)", sp, a.Base())
	}
	// G: whole array.
	if sp, ok := find(g); !ok || sp.lo != g.Base() || sp.hi != g.Base()+memsim.Addr(g.SizeBytes()) {
		t.Errorf("indirect target span = %v (base %v)", sp, g.Base())
	}
	// T: entries [8,16) of 4 bytes = bytes [32,64), tight.
	if sp, ok := find(tbl); !ok || sp.lo != tbl.Base()+32 || sp.hi != tbl.Base()+64 {
		t.Errorf("table span = %v (base %v)", sp, tbl.Base())
	}
}

// TestParallelEngineCoherenceForcing drives the engine through a cascade
// whose chunk boundaries split cache lines: consecutive chunks land on
// different simulated processors but write the same boundary lines, so
// the serial cascade generates genuine cross-processor invalidation
// traffic. The footprint admission must see exactly those overlaps,
// serialize through the solo path, and reproduce the coherence activity
// bit for bit — including the bus counters.
func TestParallelEngineCoherenceForcing(t *testing.T) {
	// 24 bytes/iter; 1000-byte chunks put every chunk boundary mid-line
	// on the Pentium Pro's 32-byte lines.
	const iters, chunkBytes = 4000, 1000
	sSer, lSer := denseLoop(iters)
	sPar, lPar := denseLoop(iters)
	mSer := machine.MustNew(machine.PentiumPro(4))
	mPar := machine.MustNew(machine.PentiumPro(4).WithParallel(machine.ParallelOn))

	ser, err := Run(mSer, lSer, parOpts(t, HelperPrefetch, sSer, chunkBytes, true))
	if err != nil {
		t.Fatal(err)
	}
	if inv := mSer.Bus().Stats().InvalidationsOut; inv == 0 {
		t.Fatal("serial cascade produced no invalidations; the test is not forcing coherence")
	}
	got := captureEngaged(t)
	par, err := Run(mPar, lPar, parOpts(t, HelperPrefetch, sPar, chunkBytes, true))
	if err != nil {
		t.Fatal(err)
	}
	if got[0]+got[1] == 0 {
		t.Fatal("parallel engine did not run")
	}
	if got[1] == 0 {
		t.Errorf("boundary-sharing chunks were all admitted (admitted=%d); conflicts went undetected", got[0])
	}
	resultDiff(t, "coherence-forcing", par, ser)
	if serBus, parBus := mSer.Bus().Stats(), mPar.Bus().Stats(); serBus != parBus {
		t.Errorf("bus stats diverge:\nserial   %+v\nparallel %+v", serBus, parBus)
	}
	if eq, idx := lPar.Writes[0].Array.Equal(lSer.Writes[0].Array.Snapshot()); !eq {
		t.Errorf("outputs diverge at element %d", idx)
	}
}

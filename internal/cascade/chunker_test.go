package cascade

import (
	"reflect"
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// streamLoop builds a 24 B/iteration loop OUT(i) = f(A(i), B(i)) over
// arrays placed by alloc, with the A reference's index given by ix.
func streamLoop(iters int, ix loopir.IndexExpr, alloc func(s *memsim.Space, name string) *memsim.Array) *loopir.Loop {
	s := memsim.NewSpace()
	a, b, out := alloc(s, "A"), alloc(s, "B"), alloc(s, "OUT")
	return &loopir.Loop{
		Name:  "stream",
		Iters: iters,
		RO: []loopir.Ref{
			{Array: a, Index: ix},
			{Array: b, Index: loopir.Ident},
		},
		Writes: []loopir.Ref{{Array: out, Index: loopir.Ident}},
	}
}

// TestSplitForSnapsChunkBoundaries pins chunk-boundary snapping, a model
// choice every pinned R10000 result depends on: on a compiler-prefetch
// machine SplitFor rounds the chunk size down to the loop's L2-line
// quantum, and everywhere else, or when no quantum exists, it is Split.
func TestSplitForSnapsChunkBoundaries(t *testing.T) {
	// 1000 B / 24 B-per-iter = 41 iterations, deliberately not a multiple
	// of the R10000's 16-iteration quantum (128 B L2 line / 8 B elements).
	const iters, chunkBytes = 4000, 1000
	lineAligned := func(s *memsim.Space, name string) *memsim.Array {
		return s.Alloc(name, iters, 8, 128)
	}
	l := streamLoop(iters, loopir.Ident, lineAligned)
	r10k, ppro := machine.R10000(8), machine.PentiumPro(8)

	if align := chunkAlign(r10k, l); align != 16 {
		t.Fatalf("R10000 chunkAlign = %d, want 16", align)
	}
	if per := ItersPerChunk(l, chunkBytes); per != 41 {
		t.Fatalf("ItersPerChunk = %d, want 41", per)
	}
	chunks := SplitFor(r10k, l, chunkBytes)
	for i, ch := range chunks {
		if ch.Lo != 32*i || (ch.Hi != ch.Lo+32 && ch.Hi != iters) {
			t.Fatalf("R10000 chunk %d = %v, want [%d,%d)", i, ch, 32*i, 32*i+32)
		}
	}
	if last := chunks[len(chunks)-1]; last.Hi != iters {
		t.Fatalf("R10000 chunks end at %d, want %d", last.Hi, iters)
	}

	if got, want := SplitFor(ppro, l, chunkBytes), Split(l, chunkBytes); !reflect.DeepEqual(got, want) {
		t.Errorf("PentiumPro SplitFor differs from Split: %d vs %d chunks", len(got), len(want))
	}

	// A written array based mid-L2-line admits no quantum.
	midLine := streamLoop(iters, loopir.Ident, func(s *memsim.Space, name string) *memsim.Array {
		if name == "OUT" {
			return s.AllocAt(name, iters, 8, 64, 128)
		}
		return lineAligned(s, name)
	})
	// An index the shape analysis does not know defeats it.
	opaque := streamLoop(iters, opaqueIndex{loopir.Ident}, lineAligned)
	for name, l := range map[string]*loopir.Loop{"mid-line write base": midLine, "unknown index": opaque} {
		if align := chunkAlign(r10k, l); align != 1 {
			t.Errorf("%s: chunkAlign = %d, want 1", name, align)
		}
		if got, want := SplitFor(r10k, l, chunkBytes), Split(l, chunkBytes); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SplitFor differs from Split: %d vs %d chunks", name, len(got), len(want))
		}
	}
}

// opaqueIndex is an index expression of a kind loopShapes does not know.
type opaqueIndex struct{ loopir.Affine }

// TestLoopShapesRejectsUnknownIndex: an index expression of an unknown
// kind defeats the whole-loop shape analysis.
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

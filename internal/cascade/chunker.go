package cascade

import (
	"fmt"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// Chunk is a contiguous range of loop iterations [Lo, Hi) executed by one
// processor in one execution phase.
type Chunk struct {
	Lo, Hi int
}

// Iters returns the number of iterations in the chunk.
func (c Chunk) Iters() int { return c.Hi - c.Lo }

// String implements fmt.Stringer.
func (c Chunk) String() string { return fmt.Sprintf("[%d,%d)", c.Lo, c.Hi) }

// ItersPerChunk returns how many iterations fit the byte budget, using the
// loop's bytes-per-iteration estimate (§2.2). At least one iteration per
// chunk.
func ItersPerChunk(l *loopir.Loop, chunkBytes int) int {
	per := chunkBytes / l.BytesPerIter()
	if per < 1 {
		per = 1
	}
	return per
}

// Split partitions the loop's iteration space into chunks of at most
// chunkBytes estimated bytes each. Every iteration belongs to exactly one
// chunk and chunks are in increasing order — sequential semantics are
// preserved by executing them in slice order.
func Split(l *loopir.Loop, chunkBytes int) []Chunk {
	return splitPer(l, ItersPerChunk(l, chunkBytes))
}

// SplitFor is the machine-aware Split the run drivers use. On machines
// whose compiler inserts prefetches (the R10000 preset) it rounds the
// chunk size down to the loop's boundary-alignment quantum (see
// chunkAlign), so consecutive chunks, which run on different processors,
// never write the same L2 line: the model's prefetching compiler sizes
// chunks in whole lines of their output. This is a model choice. It is
// kept because every pinned R10000 result was computed with it, and
// dropping it moves those results, which must be a named and reported
// output change, never a side effect. On machines without compiler
// prefetch SplitFor is identical to Split.
func SplitFor(cfg machine.Config, l *loopir.Loop, chunkBytes int) []Chunk {
	return splitPer(l, snappedPer(cfg, l, chunkBytes))
}

// snappedPer returns the per-chunk iteration count after boundary
// snapping: the byte budget's count rounded down to a multiple of the
// alignment quantum. When the budget holds fewer iterations than one
// quantum the unsnapped count is kept: a short chunk cannot be aligned.
func snappedPer(cfg machine.Config, l *loopir.Loop, chunkBytes int) int {
	per := ItersPerChunk(l, chunkBytes)
	if align := chunkAlign(cfg, l); align > 1 {
		if snapped := per / align * align; snapped > 0 {
			per = snapped
		}
	}
	return per
}

func splitPer(l *loopir.Loop, per int) []Chunk {
	chunks := make([]Chunk, 0, (l.Iters+per-1)/per)
	for lo := 0; lo < l.Iters; lo += per {
		hi := lo + per
		if hi > l.Iters {
			hi = l.Iters
		}
		chunks = append(chunks, Chunk{Lo: lo, Hi: hi})
	}
	return chunks
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// chunkAlign returns the iteration-count quantum that puts every chunk
// boundary of every affine reference over a *written* array exactly on an
// L2-line boundary, or 1 when no quantum exists (misaligned base/offset,
// indirect writes, unanalyzable loop) or the machine has no compiler
// prefetch (see SplitFor). With a chunk size that is a multiple of the
// quantum, the written data of adjacent chunks meets exactly at
// coherence granularity.
func chunkAlign(cfg machine.Config, l *loopir.Loop) int {
	if !cfg.CompilerPrefetch.Enabled || l.NoCompilerPrefetch {
		return 1
	}
	shapes, ok := loopShapes(l)
	if !ok {
		return 1
	}
	written := make(map[*memsim.Array]bool)
	for _, s := range shapes {
		if s.write {
			written[s.arr] = true
		}
	}
	l2 := cfg.L2.LineSize
	align := 1
	for _, s := range shapes {
		if s.whole || s.scale == 0 || !written[s.arr] {
			continue
		}
		elem := s.arr.ElemSize()
		// The boundary byte between consecutive chunks at iteration b is
		// base + (scale*b + off)*elem for ascending references and
		// base + (scale*b + off - scale)*elem for descending ones (the
		// low edge of the chunk ending at b). Alignment at every multiple
		// of the quantum needs the constant term L2-aligned and the
		// per-quantum increment scale*per*elem ≡ 0 (mod l2).
		boundOff := s.off
		if s.scale < 0 {
			boundOff = s.off - s.scale
		}
		if (int(s.arr.Base())+boundOff*elem)%l2 != 0 {
			return 1
		}
		abs := s.scale
		if abs < 0 {
			abs = -abs
		}
		align = lcm(align, l2/gcd(l2, abs*elem))
	}
	return align
}

// refShape is the chunk-independent shape of one loop reference: the
// array it touches and, for affine references, the element index as a
// function of the iteration. Indirect references reach their whole target
// array (the table values are data, unknowable statically).
type refShape struct {
	arr        *memsim.Array
	scale, off int
	whole      bool // entire array regardless of chunk bounds
	write      bool
}

// loopShapes derives the shapes of l's references. ok is false when any
// index expression is of an unknown kind, in which case the loop's chunk
// boundaries cannot be analyzed.
func loopShapes(l *loopir.Loop) (shapes []refShape, ok bool) {
	add := func(refs []loopir.Ref, write bool) bool {
		for _, r := range refs {
			switch ix := r.Index.(type) {
			case loopir.Affine:
				shapes = append(shapes, refShape{
					arr: r.Array, scale: ix.Scale, off: ix.Offset, write: write,
				})
			case loopir.Indirect:
				// The table walk is affine; the target array is reachable
				// anywhere (the table values are data).
				shapes = append(shapes, refShape{
					arr: ix.Tbl, scale: ix.Entry.Scale, off: ix.Entry.Offset,
				})
				shapes = append(shapes, refShape{arr: r.Array, whole: true, write: write})
			default:
				return false
			}
		}
		return true
	}
	if !add(l.RO, false) || !add(l.RW, false) || !add(l.Writes, true) {
		return nil, false
	}
	return shapes, true
}

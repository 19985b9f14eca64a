package cascade

import (
	"sort"

	"repro/internal/interp"
	"repro/internal/loopir"
	"repro/internal/memsim"
)

// This file is the parallel engine's lookahead oracle: a static,
// conservative description of every simulated line a chunk's helper and
// execution phases can touch. Two chunks whose footprints are disjoint in
// the right way (reads may share lines, writes may share nothing) cannot
// interact through the coherence protocol, so the engine may simulate them
// concurrently with the bus in isolated operation and still produce
// bit-identical results: the footprint proves a *chunk* of iterations
// cannot probe another processor's hierarchy at all.

// span is a half-open byte range [lo, hi) of simulated address space,
// aligned outward to L2-line (coherence-granularity) boundaries.
type span struct {
	lo, hi memsim.Addr
}

// normalize sorts spans and merges overlapping or adjacent ones, so span
// sets stay small and overlap checks are a linear walk.
func normalize(s []span) []span {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:1]
	for _, sp := range s[1:] {
		if last := &out[len(out)-1]; sp.lo <= last.hi {
			if sp.hi > last.hi {
				last.hi = sp.hi
			}
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// mergeSpans folds any number of normalized span sets into dst, returning
// the normalized union.
func mergeSpans(dst []span, more ...[]span) []span {
	for _, m := range more {
		dst = append(dst, m...)
	}
	return normalize(dst)
}

// spansOverlap reports whether two normalized span sets share any byte.
func spansOverlap(a, b []span) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].hi <= b[j].lo:
			i++
		case b[j].hi <= a[i].lo:
			j++
		default:
			return true
		}
	}
	return false
}

// footprint is the set of lines a chunk may read and may write. A line in
// wr may also be read (shadow loads touch write targets); wr membership is
// the stronger claim and subsumes rd for conflict purposes.
type footprint struct {
	rd, wr []span
}

// refShape is the chunk-independent footprint shape of one loop reference.
// Affine references cover a tight per-chunk element range; indirect
// references cover their table walk tightly plus the whole target array
// (the table values are data, unknowable statically).
type refShape struct {
	arr        *memsim.Array
	scale, off int
	whole      bool // entire array regardless of chunk bounds
	write      bool
}

// loopShapes derives the footprint shapes of l's references. ok is false
// when any index expression is of an unknown kind, in which case no sound
// static footprint exists and the run must stay serial.
//
// Compiler prefetch needs no reach extension here: the interpreter's
// wind-down model (interp.timed) suppresses any prefetch whose target
// lies beyond the data the current call's remaining iterations touch, so
// every prefetch a chunk can issue lands inside its tight element span.
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

// spanFor returns the shape's line span for iterations [lo, hi), aligned
// outward to l2Line (coherence granularity). The span is tight: prefetch
// wind-down guarantees no access — demand or prefetch — lands outside the
// element range the iterations themselves touch.
func (s refShape) spanFor(lo, hi, l2Line int) span {
	base := s.arr.Base()
	end := base + memsim.Addr(s.arr.SizeBytes())
	a, b := base, end
	if !s.whole {
		e0 := s.scale*lo + s.off
		e1 := s.scale*(hi-1) + s.off
		if e0 > e1 {
			e0, e1 = e1, e0
		}
		a = s.arr.Addr(e0)
		b = s.arr.Addr(e1) + memsim.Addr(s.arr.ElemSize())
		if b > end {
			b = end
		}
	}
	return span{a.Line(l2Line), b.AlignUp(l2Line)}
}

// chunkFoot builds the footprint of one chunk: every shape's span over the
// chunk's iteration range, plus — under the restructuring helper — the
// whole sequential buffer the chunk's processor streams into.
func chunkFoot(shapes []refShape, ch Chunk, l2Line int, buf *interp.SeqBuf) footprint {
	var rd, wr []span
	for _, s := range shapes {
		sp := s.spanFor(ch.Lo, ch.Hi, l2Line)
		if s.write {
			wr = append(wr, sp)
		} else {
			rd = append(rd, sp)
		}
	}
	if buf != nil {
		a := buf.Array()
		base := a.Base()
		wr = append(wr, span{base.Line(l2Line), (base + memsim.Addr(a.SizeBytes())).AlignUp(l2Line)})
	}
	return footprint{rd: normalize(rd), wr: normalize(wr)}
}

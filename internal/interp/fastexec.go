// Compiled-plan execution: the fast engine's variants of the four run
// modes. Each mirrors its interpreter counterpart in interp.go access for
// access — same reference order, same dedup decisions, same timing calls —
// so the two engines are observably identical (the differential tests in
// internal/cascade assert bit-identical metrics). What the compiled
// variants shed is the per-iteration work that never changes: interface
// dispatch on index expressions, dynamic dedup scans, and per-iteration
// closures.
package interp

import (
	"repro/internal/loopir"
	"repro/internal/machine"
)

// planIndex resolves ref's element index for iteration i, performing the
// timed index-table load when this reference owns it (compiled form of
// readIndex).
func (r *Runner) planIndex(ref *planRef, i int) int {
	pos := ref.scale*i + ref.off
	if ref.tbl == nil {
		return pos
	}
	if ref.dupLoad < 0 {
		r.timed(ref.tbl, pos, false, ref.scale, true, r.left(i))
	}
	return ref.tbl.LoadInt(pos)
}

// planRead performs a timed read of ref at iteration i (compiled readRef).
func (r *Runner) planRead(ref *planRef, i int) float64 {
	idx := r.planIndex(ref, i)
	r.timed(ref.arr, idx, false, ref.stride, ref.strideOK, r.left(i))
	return ref.arr.Load(idx)
}

// planIter executes one full iteration from home locations and returns
// its memory cost (compiled preValues + finishIter).
func (r *Runner) planIter(p *plan, l *loopir.Loop, i int) int64 {
	r.iter = machine.IterCost{}
	r.ro = r.ro[:0]
	for j := range p.ro {
		r.ro = append(r.ro, r.planRead(&p.ro[j], i))
	}
	pre := r.ro
	if r.pre != nil {
		pre = r.pre(i, r.ro)
	}
	r.rw = r.rw[:0]
	for j := range p.rw {
		r.rw = append(r.rw, r.planRead(&p.rw[j], i))
	}
	out := r.final(i, pre, r.rw)
	for j := range p.wr {
		ref := &p.wr[j]
		idx := r.planIndex(ref, i)
		ref.arr.Store(idx, out[j])
		r.timed(ref.arr, idx, true, ref.stride, ref.strideOK, r.left(i))
	}
	return r.iter.Cost(r.maxOut)
}

// execPlan is the compiled ExecIters body.
func (r *Runner) execPlan(p *plan, l *loopir.Loop, lo, hi int) int64 {
	var cycles int64
	for i := lo; i < hi; i++ {
		cycles += r.planIter(p, l, i) + l.PreCycles + l.FinalCycles
	}
	return cycles
}

// shadowPlan is the compiled ShadowIters body.
func (r *Runner) shadowPlan(p *plan, lo, hi int, budget int64) (done int, cycles int64) {
	for i := lo; i < hi; i++ {
		if budget != Unlimited && cycles >= budget {
			return i - lo, cycles
		}
		r.iter = machine.IterCost{}
		for j := range p.ro {
			ref := &p.ro[j]
			idx := r.planIndex(ref, i)
			r.timed(ref.arr, idx, false, ref.stride, ref.strideOK, r.left(i))
		}
		for j := range p.rw {
			ref := &p.rw[j]
			idx := r.planIndex(ref, i)
			r.timed(ref.arr, idx, false, ref.stride, ref.strideOK, r.left(i))
		}
		for j := range p.wr {
			ref := &p.wr[j]
			idx := r.planIndex(ref, i)
			r.timed(ref.arr, idx, false, ref.stride, ref.strideOK, r.left(i))
		}
		cycles += r.iter.Cost(r.maxOut)
	}
	return hi - lo, cycles
}

// restructurePlan is the compiled RestructureIters body.
func (r *Runner) restructurePlan(p *plan, l *loopir.Loop, lo, hi int, buf *SeqBuf, budget int64, precompute bool) (done int, cycles int64) {
	for i := lo; i < hi; i++ {
		if budget != Unlimited && cycles >= budget {
			return i - lo, cycles
		}
		r.iter = machine.IterCost{}
		r.ro = r.ro[:0]
		for j := range p.ro {
			r.ro = append(r.ro, r.planRead(&p.ro[j], i))
		}
		vals := r.ro
		var computeCycles int64
		if precompute {
			if r.pre != nil {
				vals = r.pre(i, r.ro)
			}
			computeCycles = l.PreCycles
		}
		for _, v := range vals {
			idx := buf.Push(v)
			r.timed(buf.arr, idx, true, 1, true, streamUnbounded)
		}
		// Pack index values and shadow-load the home elements.
		for s := 0; s < len(p.rw)+len(p.wr); s++ {
			ref := p.rwwr(s)
			idx := r.planIndex(ref, i)
			if ref.tbl != nil && ref.dupPush < 0 {
				slot := buf.Push(float64(idx))
				r.timed(buf.arr, slot, true, 1, true, streamUnbounded)
			}
			r.timed(ref.arr, idx, false, ref.stride, ref.strideOK, r.left(i))
		}
		cycles += r.iter.Cost(r.maxOut) + computeCycles
	}
	return hi - lo, cycles
}

// resolveBuffered resolves the element index of the rw+wr reference in
// slot s during buffered execution: directly for affine references, from
// the sequential buffer (or an earlier slot's resolution) for indirect
// ones. pos is the buffer cursor, advanced on pops.
func (r *Runner) resolveBuffered(p *plan, s, i int, buf *SeqBuf, pos *int) int {
	ref := p.rwwr(s)
	if ref.tbl == nil {
		return ref.scale*i + ref.off
	}
	if ref.dupPush >= 0 {
		return r.packIdx[ref.dupPush]
	}
	idx := int(buf.At(*pos))
	r.timed(buf.arr, *pos, false, 1, true, streamUnbounded)
	*pos++
	r.packIdx[s] = idx
	return idx
}

// execBufferPlan is the compiled ExecFromBuffer body.
func (r *Runner) execBufferPlan(p *plan, l *loopir.Loop, lo, hi, buffered int, buf *SeqBuf, precompute bool) int64 {
	if buffered > hi-lo {
		buffered = hi - lo
	}
	nVals := l.NPre
	if !precompute {
		nVals = len(p.ro)
	}
	if cap(r.scratch) < nVals {
		r.scratch = make([]float64, nVals)
	}
	vals := r.scratch[:nVals]
	if n := len(p.rw) + len(p.wr); cap(r.packIdx) < n {
		r.packIdx = make([]int, n)
	}
	r.packIdx = r.packIdx[:len(p.rw)+len(p.wr)]
	var cycles int64
	pos := 0
	for i := lo; i < lo+buffered; i++ {
		r.iter = machine.IterCost{}
		for k := 0; k < nVals; k++ {
			vals[k] = buf.At(pos)
			r.timed(buf.arr, pos, false, 1, true, streamUnbounded)
			pos++
		}
		pre := vals
		computeCycles := l.FinalCycles
		if !precompute {
			if r.pre != nil {
				pre = r.pre(i, vals)
			}
			computeCycles += l.PreCycles
		}
		r.rw = r.rw[:0]
		for j := range p.rw {
			ref := &p.rw[j]
			idx := r.resolveBuffered(p, j, i, buf, &pos)
			r.timed(ref.arr, idx, false, ref.stride, ref.strideOK, r.left(i))
			r.rw = append(r.rw, ref.arr.Load(idx))
		}
		out := r.final(i, pre, r.rw)
		for j := range p.wr {
			ref := &p.wr[j]
			idx := r.resolveBuffered(p, len(p.rw)+j, i, buf, &pos)
			ref.arr.Store(idx, out[j])
			r.timed(ref.arr, idx, true, ref.stride, ref.strideOK, r.left(i))
		}
		cycles += r.iter.Cost(r.maxOut) + computeCycles
	}
	// Remainder the helper did not reach: full home-location execution.
	cycles += r.execPlan(p, l, lo+buffered, hi)
	return cycles
}

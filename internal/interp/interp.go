package interp

import (
	"repro/internal/cache"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// Unlimited is the budget value meaning "run the helper to completion"
// (used by the unbounded-processor simulation of §3.4).
const Unlimited int64 = -1

// Runner executes loop iterations on one processor. It is cheap to create
// but reusable; internal scratch buffers avoid per-iteration allocation,
// which matters at tens of millions of simulated iterations.
type Runner struct {
	proc   *machine.Processor
	maxOut int
	pf     machine.PrefetchConfig
	line   int // L1 line size, the granularity of prefetch issue

	iter machine.IterCost // the current iteration's accesses, summed as they complete

	pfOn     bool
	pfEnd    int // exclusive end iteration of the current run-mode call (prefetch wind-down)
	tblSeen  []tblRead
	packSeen []tblRead
	packIdx  []int
	ro, rw   []float64
	scratch  []float64

	// Compiled-plan engine state: compiled selects the fast engine (from
	// the machine's Engine configuration); the runner caches the access
	// plan of the loop it last executed. A nil plan for a non-nil
	// planLoop records that the loop is not statically compilable and the
	// interpreter must be used.
	compiled bool
	plan     *plan
	planLoop *loopir.Loop

	// Per-runner instances of the bound loop's value closures. A loop's
	// shared Pre/Final instances may reuse internal scratch (see
	// loopir.Loop.NewPre), so a runner instantiates private closures from
	// the loop's factories; loops without factories fall back to the
	// shared instances. Cached per loop like the access plan.
	bodyLoop *loopir.Loop
	pre      func(i int, ro []float64) []float64
	final    func(i int, pre, rw []float64) []float64
}

// bind caches the runner-private Pre/Final closures for l, preferring the
// loop's factories (reentrant instances) over its shared closures.
func (r *Runner) bind(l *loopir.Loop) {
	if r.bodyLoop == l {
		return
	}
	r.bodyLoop = l
	if l.NewPre != nil {
		r.pre = l.NewPre()
	} else {
		r.pre = l.Pre
	}
	if l.NewFinal != nil {
		r.final = l.NewFinal()
	} else {
		r.final = l.Final
	}
}

// tblRead records an index-table element already loaded this iteration, so
// a reference appearing as both read and write (X(IJ(i)) on both sides)
// charges its index load once, as compiled code would.
type tblRead struct {
	arr *memsim.Array
	pos int
}

// New builds a Runner for proc, taking the overlap and compiler-prefetch
// parameters from the owning machine's configuration.
func New(proc *machine.Processor) *Runner {
	cfg := proc.Machine().Config()
	return &Runner{
		proc:     proc,
		maxOut:   cfg.MaxOutstanding,
		pf:       cfg.CompilerPrefetch,
		line:     cfg.L1.LineSize,
		compiled: cfg.Engine == machine.EngineFast,
	}
}

// Proc returns the processor this runner executes on.
func (r *Runner) Proc() *machine.Processor { return r.proc }

// beginIter resets the per-iteration scratch state.
func (r *Runner) beginIter() {
	r.iter = machine.IterCost{}
	r.tblSeen = r.tblSeen[:0]
}

// timed performs one demand access and records its latency, issuing a
// compiler prefetch when the machine models one and the reference's stride
// is statically known.
//
// left is the number of iterations the reference's stream still executes
// after this one within the current run-mode call, or streamUnbounded for
// streams not tied to the call's iteration range (the sequential buffer).
// It implements the compiler's prefetch wind-down: software-pipelined
// prefetch streams stop issuing once the target lies beyond the data the
// remaining iterations of this call will touch, so a chunk's prefetches
// never escape the chunk's own footprint (DESIGN.md §4.2 relies on this
// for cross-chunk disjointness).
func (r *Runner) timed(arr *memsim.Array, idx int, write bool, strideElems int, strideKnown bool, left int) {
	addr := arr.Addr(idx)
	r.iter.Add(r.proc.Access(addr, arr.ElemSize(), write))
	if !r.pfOn || !strideKnown || strideElems == 0 {
		return
	}
	// Issue one prefetch per new line entered by this reference stream:
	// fire when the access lands within the first strideBytes of its line
	// (exactly once per line for a regular walk).
	strideBytes := strideElems
	if strideBytes < 0 {
		strideBytes = -strideBytes
	}
	strideBytes *= arr.ElemSize()
	if addr.Offset(r.line) >= strideBytes {
		return
	}
	dist := memsim.Addr(r.pf.Distance * r.line)
	// Wind-down: the stream's final access of this call is strideBytes*left
	// bytes ahead; a target beyond it would touch data this call never
	// uses, which compiled wind-down code does not prefetch.
	if left >= 0 && memsim.Addr(strideBytes)*memsim.Addr(left) < dist {
		return
	}
	var target memsim.Addr
	if strideElems > 0 {
		target = addr + dist
	} else {
		if addr < arr.Base()+dist {
			return
		}
		target = addr - dist
	}
	if target < arr.Base() || target >= arr.Base()+memsim.Addr(arr.SizeBytes()) {
		return
	}
	r.proc.Prefetch(target)
	r.iter.Add(cache.Result{Cycles: r.pf.IssueCost})
}

// streamUnbounded is the `left` value for reference streams whose extent
// is not bounded by the current call's iteration range: sequential-buffer
// streams run to the buffer the compiler sized for the whole chunk, so
// only the array-bounds clamp applies. The buffer is part of the chunk's
// own footprint either way.
const streamUnbounded = -1

// left returns the wind-down bound for a loop-indexed reference stream at
// iteration i of the current run-mode call (set by the call entries).
func (r *Runner) left(i int) int { return r.pfEnd - 1 - i }

// readIndex resolves a reference's element index for iteration i,
// performing (and timing) the index-table load if one is needed and not
// already done this iteration.
func (r *Runner) readIndex(ref loopir.Ref, i int) int {
	if tbl, pos := ref.Index.Table(i); tbl != nil {
		seen := false
		for _, t := range r.tblSeen {
			if t.arr == tbl && t.pos == pos {
				seen = true
				break
			}
		}
		if !seen {
			r.tblSeen = append(r.tblSeen, tblRead{tbl, pos})
			// Index tables are walked affinely; their stride is the
			// Entry's scale.
			stride := 1
			if s, ok := affineEntryStride(ref.Index); ok {
				stride = s
			}
			r.timed(tbl, pos, false, stride, true, r.left(i))
		}
	}
	return ref.Index.At(i)
}

// affineEntryStride extracts the table-walk stride of an indirect index.
func affineEntryStride(ix loopir.IndexExpr) (int, bool) {
	if ind, ok := ix.(loopir.Indirect); ok {
		return ind.Entry.Scale, true
	}
	return 0, false
}

// readRef performs a timed read of ref at iteration i and returns the value.
func (r *Runner) readRef(ref loopir.Ref, i int) float64 {
	idx := r.readIndex(ref, i)
	stride, known := ref.Index.StrideElems()
	r.timed(ref.Array, idx, false, stride, known, r.left(i))
	return ref.Array.Load(idx)
}

// writeRef performs a timed write of v through ref at iteration i.
func (r *Runner) writeRef(ref loopir.Ref, i int, v float64) {
	idx := r.readIndex(ref, i)
	ref.Array.Store(idx, v)
	stride, known := ref.Index.StrideElems()
	r.timed(ref.Array, idx, true, stride, known, r.left(i))
}

// preValues computes the read-only stage of iteration i, reading the RO
// operands (timed) and applying Pre. The returned slice aliases Runner
// scratch space and is valid until the next iteration.
func (r *Runner) preValues(l *loopir.Loop, i int) []float64 {
	r.ro = r.ro[:0]
	for _, ref := range l.RO {
		r.ro = append(r.ro, r.readRef(ref, i))
	}
	if r.pre != nil {
		return r.pre(i, r.ro)
	}
	return r.ro
}

// finishIter computes Final over pre and the (timed) RW reads, performs
// the writes, and returns the iteration's memory cost under the overlap
// model. Compute cycles are added by the caller, which knows which phases
// it represents.
func (r *Runner) finishIter(l *loopir.Loop, i int, pre []float64) int64 {
	r.rw = r.rw[:0]
	for _, ref := range l.RW {
		r.rw = append(r.rw, r.readRef(ref, i))
	}
	out := r.final(i, pre, r.rw)
	for j, ref := range l.Writes {
		r.writeRef(ref, i, out[j])
	}
	return r.iter.Cost(r.maxOut)
}

// ExecIters executes iterations [lo,hi) of l from the operands' home
// locations and returns the cycles consumed. This is both the sequential
// baseline (on one processor) and the execution phase of prefetch-mode
// cascaded execution.
func (r *Runner) ExecIters(l *loopir.Loop, lo, hi int) int64 {
	r.bind(l)
	r.pfOn = r.pf.Enabled && !l.NoCompilerPrefetch
	r.pfEnd = hi
	if p := r.planFor(l); p != nil {
		return r.execPlan(p, l, lo, hi)
	}
	var cycles int64
	for i := lo; i < hi; i++ {
		r.beginIter()
		pre := r.preValues(l, i)
		cycles += r.finishIter(l, i, pre) + l.PreCycles + l.FinalCycles
	}
	return cycles
}

// ShadowIters runs the prefetch helper over iterations [lo,hi): a shadow
// version of the loop body that performs every operand and index-table
// load (touching to-be-written lines too) without computing or storing.
// It stops after the iteration during which the cycle budget is exhausted,
// modelling a helper that jumps out when signaled; budget Unlimited runs
// to completion. It returns the number of iterations fully shadowed and
// the cycles spent.
func (r *Runner) ShadowIters(l *loopir.Loop, lo, hi int, budget int64) (done int, cycles int64) {
	r.bind(l)
	r.pfOn = r.pf.Enabled && !l.NoCompilerPrefetch
	r.pfEnd = hi
	if p := r.planFor(l); p != nil {
		return r.shadowPlan(p, lo, hi, budget)
	}
	for i := lo; i < hi; i++ {
		if budget != Unlimited && cycles >= budget {
			return i - lo, cycles
		}
		r.beginIter()
		for _, ref := range l.RO {
			idx := r.readIndex(ref, i)
			stride, known := ref.Index.StrideElems()
			r.timed(ref.Array, idx, false, stride, known, r.left(i))
		}
		for _, ref := range l.RW {
			idx := r.readIndex(ref, i)
			stride, known := ref.Index.StrideElems()
			r.timed(ref.Array, idx, false, stride, known, r.left(i))
		}
		for _, ref := range l.Writes {
			idx := r.readIndex(ref, i)
			stride, known := ref.Index.StrideElems()
			r.timed(ref.Array, idx, false, stride, known, r.left(i))
		}
		cycles += r.iter.Cost(r.maxOut)
	}
	return hi - lo, cycles
}

// RestructureIters runs the restructuring helper over iterations [lo,hi):
// all read-only data is streamed into buf in dynamic reference order —
// the read-only operand values, then the index values of indirect
// RW/Write references (deduplicated within the iteration) — so the
// execution phase neither gathers operands nor touches index arrays. The
// remaining non-restructurable data (the RW elements and write targets
// themselves) is shadow-loaded exactly as ShadowIters does, since it must
// still be accessed at home during execution.
//
// With precompute set, the helper additionally applies the loop's
// read-only computation Pre — charging PreCycles to the helper instead of
// the execution phase — and stores the (usually fewer) precomputed values
// instead of the raw operands. This is §2.1's optional "computation that
// involves only read-only data values can be done during the helper
// phase".
//
// The budget semantics match ShadowIters. The buffer must be freshly
// Reset and hold at least (hi-lo)*l.BufSlotsPerIter() values.
func (r *Runner) RestructureIters(l *loopir.Loop, lo, hi int, buf *SeqBuf, budget int64, precompute bool) (done int, cycles int64) {
	r.bind(l)
	r.pfOn = r.pf.Enabled && !l.NoCompilerPrefetch
	r.pfEnd = hi
	if p := r.planFor(l); p != nil {
		return r.restructurePlan(p, l, lo, hi, buf, budget, precompute)
	}
	for i := lo; i < hi; i++ {
		if budget != Unlimited && cycles >= budget {
			return i - lo, cycles
		}
		r.beginIter()
		var vals []float64
		var computeCycles int64
		if precompute {
			vals = r.preValues(l, i)
			computeCycles = l.PreCycles
		} else {
			r.ro = r.ro[:0]
			for _, ref := range l.RO {
				r.ro = append(r.ro, r.readRef(ref, i))
			}
			vals = r.ro
		}
		for _, v := range vals {
			idx := buf.Push(v)
			r.timed(buf.arr, idx, true, 1, true, streamUnbounded)
		}
		// Pack index values and shadow-load the home elements.
		packIndex := func(ref loopir.Ref) {
			idx := r.readIndex(ref, i) // timed table load, deduplicated
			if tbl, pos := ref.Index.Table(i); tbl != nil && !r.indexPacked(tbl, pos) {
				r.markPacked(tbl, pos)
				slot := buf.Push(float64(idx))
				r.timed(buf.arr, slot, true, 1, true, streamUnbounded)
			}
			stride, known := ref.Index.StrideElems()
			r.timed(ref.Array, idx, false, stride, known, r.left(i))
		}
		r.packSeen = r.packSeen[:0]
		for _, ref := range l.RW {
			packIndex(ref)
		}
		for _, ref := range l.Writes {
			packIndex(ref)
		}
		cycles += r.iter.Cost(r.maxOut) + computeCycles
	}
	return hi - lo, cycles
}

// indexPacked reports whether the (table, position) pair's value was
// already pushed to the buffer this iteration.
func (r *Runner) indexPacked(tbl *memsim.Array, pos int) bool {
	for _, t := range r.packSeen {
		if t.arr == tbl && t.pos == pos {
			return true
		}
	}
	return false
}

// markPacked records a packed (table, position) pair for this iteration.
func (r *Runner) markPacked(tbl *memsim.Array, pos int) {
	r.packSeen = append(r.packSeen, tblRead{tbl, pos})
}

// ExecFromBuffer executes iterations [lo,hi) given that the restructuring
// helper completed the first `buffered` of them into buf (with the same
// precompute setting). Buffered iterations stream their read-only operand
// values — and the index values of indirect RW/Write references —
// sequentially out of the buffer, touching neither the read-only arrays
// nor the index arrays. With precompute the buffered values are already
// through Pre and only FinalCycles of compute is charged; without it the
// execution phase applies Pre itself. The remainder falls back to the
// full home-location path (the helper jumped out early).
func (r *Runner) ExecFromBuffer(l *loopir.Loop, lo, hi, buffered int, buf *SeqBuf, precompute bool) int64 {
	r.bind(l)
	r.pfOn = r.pf.Enabled && !l.NoCompilerPrefetch
	r.pfEnd = hi
	if p := r.planFor(l); p != nil {
		return r.execBufferPlan(p, l, lo, hi, buffered, buf, precompute)
	}
	if buffered > hi-lo {
		buffered = hi - lo
	}
	nVals := l.NPre
	if !precompute {
		nVals = len(l.RO)
	}
	var cycles int64
	pos := 0
	if cap(r.scratch) < nVals {
		r.scratch = make([]float64, nVals)
	}
	vals := r.scratch[:nVals]
	for i := lo; i < lo+buffered; i++ {
		r.beginIter()
		for k := 0; k < nVals; k++ {
			vals[k] = buf.At(pos)
			r.timed(buf.arr, pos, false, 1, true, streamUnbounded)
			pos++
		}
		pre := vals
		var computeCycles int64 = l.FinalCycles
		if !precompute {
			if r.pre != nil {
				pre = r.pre(i, vals)
			}
			computeCycles += l.PreCycles
		}
		// Resolve indirect indices from the buffer, mirroring the
		// helper's dedup order exactly.
		r.packSeen = r.packSeen[:0]
		r.packIdx = r.packIdx[:0]
		resolve := func(ref loopir.Ref) int {
			tbl, tpos := ref.Index.Table(i)
			if tbl == nil {
				return ref.Index.At(i)
			}
			for k, t := range r.packSeen {
				if t.arr == tbl && t.pos == tpos {
					return r.packIdx[k]
				}
			}
			idx := int(buf.At(pos))
			r.timed(buf.arr, pos, false, 1, true, streamUnbounded)
			pos++
			r.markPacked(tbl, tpos)
			r.packIdx = append(r.packIdx, idx)
			return idx
		}
		r.rw = r.rw[:0]
		for _, ref := range l.RW {
			idx := resolve(ref)
			stride, known := ref.Index.StrideElems()
			r.timed(ref.Array, idx, false, stride, known, r.left(i))
			r.rw = append(r.rw, ref.Array.Load(idx))
		}
		out := r.final(i, pre, r.rw)
		for j, ref := range l.Writes {
			idx := resolve(ref)
			ref.Array.Store(idx, out[j])
			stride, known := ref.Index.StrideElems()
			r.timed(ref.Array, idx, true, stride, known, r.left(i))
		}
		cycles += r.iter.Cost(r.maxOut) + computeCycles
	}
	for i := lo + buffered; i < hi; i++ {
		r.beginIter()
		p := r.preValues(l, i)
		cycles += r.finishIter(l, i, p) + l.PreCycles + l.FinalCycles
	}
	return cycles
}

package interp

import (
	"repro/internal/loopir"
	"repro/internal/memsim"
)

// planRef is one memory reference of a compiled access plan: the loop
// IR's Ref with everything resolvable before the first iteration already
// resolved — backing array, index coefficients, prefetch stride, and the
// intra-iteration reuse links that replace the interpreter's dynamic
// dedup scans. The hot loop then runs over a flat slice of these with no
// interface dispatch and no per-iteration searching.
type planRef struct {
	arr *memsim.Array

	// Index resolution. For a direct reference (tbl == nil) the element
	// index is scale*i + off. For an indirect reference the index-array
	// position is scale*i + off and the element index is the table's
	// value there.
	tbl        *memsim.Array
	scale, off int

	// dupLoad marks an indirect reference whose index-table load is
	// covered by an earlier reference of the same iteration (same table,
	// same position every iteration): -1 when this reference performs the
	// timed table load itself, >= 0 when it reuses one. This is the
	// static form of the interpreter's tblSeen scan; Compile refuses
	// loops where the equivalence cannot be decided statically.
	dupLoad int

	// dupPush is the same reuse link for the restructuring helper's
	// index-value packing, whose dedup scope is only the RW and Write
	// references: -1 when this reference pushes (helper) / pops
	// (buffered execution) the index value, otherwise the rw+wr slot
	// whose value it reuses.
	dupPush int

	// Compiler-prefetch annotations: the reference's per-iteration
	// stride in elements when statically known.
	stride   int
	strideOK bool
}

// plan is a compiled loop: the three reference groups in iteration
// order, preallocated and fully resolved. Plans are immutable once
// compiled and safe to share across runners; each Runner caches the plan
// of the loop it is currently executing.
type plan struct {
	ro, rw, wr []planRef
}

// rwwr returns the slot'th reference of the concatenated RW+Writes
// groups (the restructuring dedup scope).
func (p *plan) rwwr(slot int) *planRef {
	if slot < len(p.rw) {
		return &p.rw[slot]
	}
	return &p.wr[slot-len(p.rw)]
}

// compilePlan builds the access plan for l, or returns nil when the loop
// cannot be compiled with guaranteed equivalence to the interpreter —
// an index expression the compiler does not know, or two index-table
// walks whose positions coincide on some but not all iterations (the
// interpreter's dynamic dedup would then fire on a data-dependent subset
// of iterations, which no static annotation can express). Callers fall
// back to the reference interpreter in that case.
func compilePlan(l *loopir.Loop) *plan {
	total := len(l.RO) + len(l.RW) + len(l.Writes)
	refs := make([]planRef, 0, total)
	compileRef := func(ref loopir.Ref) bool {
		pr := planRef{arr: ref.Array, dupLoad: -1, dupPush: -1}
		switch ix := ref.Index.(type) {
		case loopir.Affine:
			pr.scale, pr.off = ix.Scale, ix.Offset
			pr.stride, pr.strideOK = ix.Scale, true
		case loopir.Indirect:
			pr.tbl = ix.Tbl
			pr.scale, pr.off = ix.Entry.Scale, ix.Entry.Offset
			pr.stride, pr.strideOK = 0, false
		default:
			return false
		}
		refs = append(refs, pr)
		return true
	}
	for _, ref := range l.Refs() {
		if !compileRef(ref) {
			return nil
		}
	}

	// Resolve intra-iteration index-table reuse. Two walks of the same
	// table share a load on iteration i iff their positions coincide
	// there; statically that is either always (identical coefficients),
	// never, or on a single iteration (different scales crossing once) —
	// the last is the case we must detect and refuse.
	for j := range refs {
		if refs[j].tbl == nil {
			continue
		}
		for k := 0; k < j; k++ {
			if refs[k].tbl != refs[j].tbl {
				continue
			}
			switch {
			case refs[k].scale == refs[j].scale && refs[k].off == refs[j].off:
				if refs[j].dupLoad < 0 {
					refs[j].dupLoad = k
				}
			case refs[k].scale == refs[j].scale:
				// Same stride, different offset: never coincide.
			default:
				// Different strides cross at one iteration; bail if it
				// lies inside the loop's range.
				ds := refs[k].scale - refs[j].scale
				do := refs[j].off - refs[k].off
				if do%ds == 0 {
					if i := do / ds; i >= 0 && i < l.Iters {
						return nil
					}
				}
			}
		}
	}

	nRO, nRW := len(l.RO), len(l.RW)
	p := &plan{ro: refs[:nRO:nRO], rw: refs[nRO : nRO+nRW : nRO+nRW], wr: refs[nRO+nRW:]}

	// dupPush links live in the RW+Writes scope only (the restructuring
	// helper packs index values after the RO stream; RO table loads do
	// not push).
	for j := nRO; j < total; j++ {
		if refs[j].tbl == nil {
			continue
		}
		for k := nRO; k < j; k++ {
			if refs[k].tbl == refs[j].tbl && refs[k].scale == refs[j].scale && refs[k].off == refs[j].off {
				refs[j].dupPush = k - nRO
				break
			}
		}
	}
	return p
}

// planFor returns the compiled plan for l, compiling and caching it on
// first use, or nil when the runner is in reference mode or the loop is
// not statically compilable.
func (r *Runner) planFor(l *loopir.Loop) *plan {
	if !r.compiled {
		return nil
	}
	if r.planLoop != l {
		r.planLoop = l
		r.plan = compilePlan(l)
	}
	return r.plan
}

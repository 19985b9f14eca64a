package loopir

import (
	"fmt"

	"repro/internal/memsim"
)

// Ref is one memory reference of the loop body: an element of Array
// selected by Index each iteration.
type Ref struct {
	Array *memsim.Array
	Index IndexExpr
}

// Addr returns the simulated address referenced at iteration i.
func (r Ref) Addr(i int) memsim.Addr { return r.Array.Addr(r.Index.At(i)) }

// String renders the reference, e.g. "X(IJ(i))".
func (r Ref) String() string {
	return fmt.Sprintf("%s(%s)", r.Array.Name(), r.Index.String())
}

// Loop is one unparallelized loop. Iterations are normalized to
// 0..Iters-1; the original source-level step is folded into the index
// expressions (a `do i = 1, n, k` loop becomes Iters = n/k with Scale k).
//
// References are split by restructurability:
//
//   - RO: reads of data written nowhere in the loop. These (and their
//     index arrays) may be streamed into a sequential buffer by a
//     restructuring helper.
//   - RW: reads of data the loop also writes. They must be performed from
//     their home locations during the execution phase.
//   - Writes: stores.
//
// The iteration's value semantics are
//
//	pre := Pre(i, roValues)      // PreCycles of compute; only RO inputs
//	out := Final(i, pre, rwValues) // FinalCycles of compute
//	Writes[j] <- out[j]
//
// Pre may be nil, meaning identity (pre == roValues, PreCycles still
// charged during whichever phase performs the RO reads). The split is what
// lets a restructuring helper perform the read-only part of the
// computation ahead of time, as §2.1 of the paper describes.
type Loop struct {
	Name  string
	Iters int

	RO     []Ref
	RW     []Ref
	Writes []Ref

	PreCycles   int64
	FinalCycles int64

	// NoCompilerPrefetch marks a loop the machine's compiler declines to
	// insert software prefetches for (when the machine models them at
	// all). Compilers prefetch only loops whose locality they can
	// analyze; a loop dominated by an opaque indirect store — like the
	// paper's synthetic X(IJ(i)) loop — defeats that analysis.
	NoCompilerPrefetch bool

	// NPre is the number of values Pre produces. When Pre is nil it must
	// be len(RO) (or zero, which Validate normalizes to len(RO)).
	NPre  int
	Pre   func(i int, ro []float64) []float64
	Final func(i int, pre, rw []float64) []float64

	// NewPre and NewFinal, when set, construct fresh instances of the
	// Pre/Final closures. The hot-loop closure idiom reuses one result
	// slot across iterations (see internal/wave5), so one instance must
	// not serve two execution contexts at once. A loop that provides
	// factories lets each execution context (interp.Runner) instantiate
	// private closures. Validate materializes Pre/Final from the
	// factories when unset, so a loop may provide only the factories.
	NewPre   func() func(i int, ro []float64) []float64
	NewFinal func() func(i int, pre, rw []float64) []float64
}

// Validate checks structural invariants cheaply (O(refs)). Use CheckBounds
// for the O(Iters) index-range scan.
func (l *Loop) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("loopir: loop has no name")
	}
	if l.Iters <= 0 {
		return fmt.Errorf("loopir: loop %s: Iters = %d", l.Name, l.Iters)
	}
	// Materialize the shared closure instances from the factories when a
	// loop provides only the latter (the instance the serial paths use is
	// then simply the first one built).
	if l.Pre == nil && l.NewPre != nil {
		l.Pre = l.NewPre()
	}
	if l.Final == nil && l.NewFinal != nil {
		l.Final = l.NewFinal()
	}
	if l.Final == nil {
		return fmt.Errorf("loopir: loop %s: Final is nil", l.Name)
	}
	if l.PreCycles < 0 || l.FinalCycles < 0 {
		return fmt.Errorf("loopir: loop %s: negative compute cycles", l.Name)
	}
	if l.Pre == nil {
		if l.NPre != 0 && l.NPre != len(l.RO) {
			return fmt.Errorf("loopir: loop %s: NPre = %d without Pre; want 0 or %d",
				l.Name, l.NPre, len(l.RO))
		}
		l.NPre = len(l.RO)
	} else if l.NPre <= 0 {
		return fmt.Errorf("loopir: loop %s: Pre set but NPre = %d", l.Name, l.NPre)
	}
	for _, r := range append(append([]Ref{}, l.RO...), append(l.RW, l.Writes...)...) {
		if r.Array == nil || r.Index == nil {
			return fmt.Errorf("loopir: loop %s: ref with nil array or index", l.Name)
		}
	}
	// Read-only operands (and all index tables) must not alias written data.
	written := make(map[*memsim.Array]bool)
	for _, w := range l.Writes {
		written[w.Array] = true
	}
	checkRO := func(a *memsim.Array, what string) error {
		for w := range written {
			if a == w || a.Overlaps(w) {
				return fmt.Errorf("loopir: loop %s: %s %s aliases written array %s",
					l.Name, what, a.Name(), w.Name())
			}
		}
		return nil
	}
	for _, r := range l.RO {
		if err := checkRO(r.Array, "read-only operand"); err != nil {
			return err
		}
	}
	for _, r := range append(append(append([]Ref{}, l.RO...), l.RW...), l.Writes...) {
		if tbl, _ := r.Index.Table(0); tbl != nil {
			if err := checkRO(tbl, "index array"); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckBounds scans every iteration and verifies all element indices are
// in range. It is O(Iters x refs) and intended for workload construction
// and tests.
func (l *Loop) CheckBounds() error {
	for _, g := range [][]Ref{l.RO, l.RW, l.Writes} {
		for _, r := range g {
			if err := l.checkRefBounds(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// affineInRange reports whether Scale*i + Offset stays inside [0, n) for
// every i in [0, iters). An affine sequence is monotonic, so checking its
// two endpoints suffices.
func affineInRange(a Affine, iters, n int) bool {
	lo, hi := a.Offset, a.Scale*(iters-1)+a.Offset
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo >= 0 && hi < n
}

// checkRefBounds verifies one reference over the whole iteration range.
// Known index shapes are checked without the per-iteration interface
// dispatch of the generic scan: affine indices by their endpoints alone,
// indirect ones by an endpoint check of the table positions plus a tight
// scan of the table values. On failure it falls back to the generic scan,
// which reports the first offending iteration exactly as it always has.
func (l *Loop) checkRefBounds(r Ref) error {
	if l.Iters <= 0 {
		return nil
	}
	switch ix := r.Index.(type) {
	case Affine:
		if affineInRange(ix, l.Iters, r.Array.Len()) {
			return nil
		}
	case Indirect:
		if affineInRange(ix.Entry, l.Iters, ix.Tbl.Len()) {
			ok, n := true, r.Array.Len()
			for i, pos := 0, ix.Entry.Offset; i < l.Iters; i, pos = i+1, pos+ix.Entry.Scale {
				if idx := ix.Tbl.LoadInt(pos); idx < 0 || idx >= n {
					ok = false
					break
				}
			}
			if ok {
				return nil
			}
		}
	default:
		// Unknown index shape: only the generic scan below applies.
	}
	return l.scanRefBounds(r)
}

// scanRefBounds is the generic per-iteration bounds scan, used for index
// shapes the endpoint analysis does not know and to produce the error for
// references the analysis rejected.
func (l *Loop) scanRefBounds(r Ref) error {
	for i := 0; i < l.Iters; i++ {
		if tbl, pos := r.Index.Table(i); tbl != nil {
			if pos < 0 || pos >= tbl.Len() {
				return fmt.Errorf("loopir: loop %s: %s: index-table position %d out of [0,%d) at i=%d",
					l.Name, r, pos, tbl.Len(), i)
			}
		}
		idx := r.Index.At(i)
		if idx < 0 || idx >= r.Array.Len() {
			return fmt.Errorf("loopir: loop %s: %s: element %d out of [0,%d) at i=%d",
				l.Name, r, idx, r.Array.Len(), i)
		}
	}
	return nil
}

// Refs returns all references (RO, RW, Writes) in a fresh slice.
func (l *Loop) Refs() []Ref {
	out := make([]Ref, 0, len(l.RO)+len(l.RW)+len(l.Writes))
	out = append(out, l.RO...)
	out = append(out, l.RW...)
	out = append(out, l.Writes...)
	return out
}

// String summarizes the loop.
func (l *Loop) String() string {
	return fmt.Sprintf("%s{%d iters, %d ro, %d rw, %d writes, %d+%d cy}",
		l.Name, l.Iters, len(l.RO), len(l.RW), len(l.Writes), l.PreCycles, l.FinalCycles)
}

package interp

import (
	"reflect"
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// coherenceGuardLoop builds a purely affine unit-stride loop — nearly
// every access a same-line hit, the fast path's best case — over its own
// space, so twin machines can execute structurally identical copies
// without sharing mutable state.
func coherenceGuardLoop(n int) (*memsim.Space, *loopir.Loop) {
	space := memsim.NewSpace()
	a := space.Alloc("a", n, 8, 8)
	a.Fill(func(i int) float64 { return float64(i) })
	b := space.Alloc("b", n, 8, 8)
	b.Fill(func(i int) float64 { return 0.5 * float64(i) })

	pre := make([]float64, 1)
	out := make([]float64, 1)
	l := &loopir.Loop{
		Name:   "coherenceguard",
		Iters:  n,
		RO:     []loopir.Ref{{Array: a, Index: loopir.Affine{Scale: 1}}},
		RW:     []loopir.Ref{{Array: b, Index: loopir.Affine{Scale: 1}}},
		Writes: []loopir.Ref{{Array: b, Index: loopir.Affine{Scale: 1}}},
		NPre:   1,
		Pre: func(_ int, ro []float64) []float64 {
			pre[0] = 3 * ro[0]
			return pre
		},
		Final: func(_ int, p, rw []float64) []float64 {
			out[0] = p[0] + rw[0]
			return out
		},
		PreCycles: 2, FinalCycles: 2,
	}
	return space, l
}

// The mid-line split index for the coherence tests: with 8-byte elements
// on 32-byte lines, index 510 sits inside a line, so the line holding the
// split is resident when the remote writes land and the first access
// after resuming lands on an invalidated line the same-line memo still
// points at.
const coherenceSplit = 510

// remoteSweep makes processor 1 write every line of every array the loop
// references; each write-miss broadcast invalidates processor 0's copies.
func remoteSweep(m *machine.Machine, l *loopir.Loop) {
	for _, ref := range l.Refs() {
		for i := 0; i < l.Iters; i += 4 {
			m.Proc(1).Access(ref.Array.Addr(i), 8, true)
		}
	}
}

// TestFastEngineCoherenceDifferential drives one interleaving — half the
// loop, a remote invalidation sweep, the other half — through the fast
// engine and the reference interpreter on twin machines, and demands
// bit-identical cycles, cache statistics, metric snapshots, and output
// values. The second half is the interesting part: its opening accesses
// hit memoized lines the remote writes invalidated, so identical results
// prove the same-line fast path re-verifies its hints.
func TestFastEngineCoherenceDifferential(t *testing.T) {
	const n = 1024
	run := func(engine machine.Engine) (*machine.Machine, *loopir.Loop, int64, int64) {
		_, l := coherenceGuardLoop(n)
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(machine.PentiumPro(2).WithEngine(engine))
		if err != nil {
			t.Fatal(err)
		}
		r := New(m.Proc(0))
		c1 := r.ExecIters(l, 0, coherenceSplit)
		remoteSweep(m, l)
		c2 := r.ExecIters(l, coherenceSplit, n)
		return m, l, c1, c2
	}

	fastM, fastL, fc1, fc2 := run(machine.EngineFast)
	refM, refL, rc1, rc2 := run(machine.EngineReference)

	if fc1 != rc1 {
		t.Errorf("pre-invalidation cycles diverge: fast %d, reference %d", fc1, rc1)
	}
	if fc2 != rc2 {
		t.Errorf("post-invalidation cycles diverge: fast %d, reference %d", fc2, rc2)
	}
	if fastM.L1Stats() != refM.L1Stats() {
		t.Errorf("L1 stats diverge:\nfast      %+v\nreference %+v", fastM.L1Stats(), refM.L1Stats())
	}
	if fastM.L2Stats() != refM.L2Stats() {
		t.Errorf("L2 stats diverge:\nfast      %+v\nreference %+v", fastM.L2Stats(), refM.L2Stats())
	}
	if fastM.TLBStats() != refM.TLBStats() {
		t.Errorf("TLB stats diverge:\nfast      %+v\nreference %+v", fastM.TLBStats(), refM.TLBStats())
	}
	if !reflect.DeepEqual(fastM.Metrics().Snapshot(), refM.Metrics().Snapshot()) {
		t.Errorf("metric snapshots diverge:\nfast      %+v\nreference %+v",
			fastM.Metrics().Snapshot(), refM.Metrics().Snapshot())
	}
	if eq, idx := fastL.Writes[0].Array.Equal(refL.Writes[0].Array.Snapshot()); !eq {
		t.Errorf("output values diverge at element %d", idx)
	}
}

package interp

import (
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// allocGuardLoop builds a loop exercising every compiled code path —
// affine and indirect reads, a read-modify-write, an indirect write
// sharing its index walk with a read — whose Pre/Final closures reuse
// preallocated result slices, so any allocation observed during steady-
// state execution is the engine's own.
func allocGuardLoop(space *memsim.Space, n int) *loopir.Loop {
	tbl := space.Alloc("tbl", n, 8, 8)
	tbl.Fill(func(i int) float64 { return float64((i * 7) % n) })
	a := space.Alloc("a", n, 8, 8)
	a.Fill(func(i int) float64 { return float64(i) })
	x := space.Alloc("x", n, 8, 8)
	x.Fill(func(i int) float64 { return 2 * float64(i) })
	b := space.Alloc("b", n, 8, 8)

	pre := make([]float64, 1)
	out := make([]float64, 1)
	ind := loopir.Indirect{Tbl: tbl, Entry: loopir.Affine{Scale: 1}}
	return &loopir.Loop{
		Name:  "allocguard",
		Iters: n,
		RO: []loopir.Ref{
			{Array: a, Index: loopir.Affine{Scale: 1}},
			{Array: x, Index: ind},
		},
		RW:     []loopir.Ref{{Array: b, Index: ind}},
		Writes: []loopir.Ref{{Array: b, Index: ind}},
		NPre:   1,
		Pre: func(_ int, ro []float64) []float64 {
			pre[0] = ro[0] + ro[1]
			return pre
		},
		Final: func(_ int, p, rw []float64) []float64 {
			out[0] = p[0] + rw[0]
			return out
		},
		PreCycles: 2, FinalCycles: 2,
	}
}

// TestFastPathZeroAllocs guards the compiled engine's hot paths against
// per-iteration allocation: after one warm-up pass (plan compilation,
// scratch-buffer growth), steady-state execution, shadow prefetch,
// restructuring, and buffered execution must all run allocation-free.
func TestFastPathZeroAllocs(t *testing.T) {
	const n = 512
	space := memsim.NewSpace()
	l := allocGuardLoop(space, n)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}

	m, err := machine.New(machine.PentiumPro(1).WithEngine(machine.EngineFast))
	if err != nil {
		t.Fatal(err)
	}
	r := New(m.Proc(0))
	if r.planFor(l) == nil {
		t.Fatal("guard loop did not compile; the test would measure the interpreter")
	}
	buf := NewSeqBuf(space, "seqbuf", 8*n)

	cases := []struct {
		name string
		run  func()
	}{
		{"exec", func() { r.ExecIters(l, 0, n) }},
		{"shadow", func() { r.ShadowIters(l, 0, n, Unlimited) }},
		{"restructure", func() {
			buf.Reset()
			r.RestructureIters(l, 0, n, buf, Unlimited, false)
		}},
		{"execFromBuffer", func() {
			buf.Reset()
			r.RestructureIters(l, 0, n, buf, Unlimited, false)
			r.ExecFromBuffer(l, 0, n, n, buf, false)
		}},
	}
	for _, c := range cases {
		c.run() // warm-up: compile the plan, grow scratch buffers
		if avg := testing.AllocsPerRun(10, c.run); avg != 0 {
			t.Errorf("%s: %.1f allocs per steady-state pass, want 0", c.name, avg)
		}
	}
}

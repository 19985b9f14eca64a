// Package gallery is a library of classic memory-bound kernels expressed
// in the loop IR — the workloads a user would first try cascaded
// execution on. Each kernel builder returns a fresh address space and a
// validated loop; sizes are in elements and footprints scale linearly.
//
// The kernels span the behaviour space the paper's analysis carves out:
// pure streams (triad, copy), stencils (reuse between neighbours),
// conflict-engineered lockstep streams, random gathers, and
// histogram-style scatters. The gallery experiment runs each under all
// three strategies and tabulates who benefits, which is a compact summary
// of when cascading is worth applying.
package gallery

import (
	"fmt"

	"repro/internal/loopir"
	"repro/internal/memsim"
)

// Kernel is one gallery entry.
type Kernel struct {
	Name        string
	Description string
	// Build constructs the kernel over n elements.
	Build func(n int) (*memsim.Space, *loopir.Loop, error)
}

// Kernels returns the gallery in presentation order.
func Kernels() []Kernel {
	return []Kernel{
		{
			Name:        "triad",
			Description: "STREAM triad a(i) = b(i) + s*c(i); pure streams, no reuse",
			Build:       buildTriad,
		},
		{
			Name:        "triad-conflict",
			Description: "triad with all arrays on one cache-set congruence class",
			Build:       buildTriadConflict,
		},
		{
			Name:        "stencil3",
			Description: "3-point stencil d(i) = w(s(i-1), s(i), s(i+1)); neighbour reuse",
			Build:       buildStencil3,
		},
		{
			Name:        "gather",
			Description: "random gather a(i) = x(idx(i)); no locality in x",
			Build:       buildGather,
		},
		{
			Name:        "histogram",
			Description: "scatter h(b(i)) += w(i) into a small table; RMW randomness",
			Build:       buildHistogram,
		},
		{
			Name:        "transpose",
			Description: "gather transpose out(i) = in(perm(i)) with large row stride",
			Build:       buildTranspose,
		},
	}
}

// Lookup returns the kernel with the given name.
func Lookup(name string) (Kernel, error) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("gallery: no kernel %q", name)
}

// lcg is the gallery's deterministic fill generator.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// Shared closure factories. The kernels' value semantics are stateless,
// so the factories just mint fresh instances of the same pure functions.
func triadPre() func(int, []float64) []float64 {
	return func(_ int, ro []float64) []float64 { return []float64{ro[0] + 3.0*ro[1]} }
}

func passPre() func(int, []float64, []float64) []float64 {
	return func(_ int, pre, _ []float64) []float64 { return pre }
}

func validate(l *loopir.Loop) error {
	if err := l.Validate(); err != nil {
		return err
	}
	return l.CheckBounds()
}

func buildTriad(n int) (*memsim.Space, *loopir.Loop, error) {
	s := memsim.NewSpace()
	// Staggered congruence classes: large arrays allocated back-to-back
	// would collide modulo every way size (that is what triad-conflict
	// shows), so the clean variant spreads them deliberately.
	a := s.AllocAt("A", n, 8, 0, 1<<20)
	b := s.AllocAt("B", n, 8, (340<<10)+1024, 1<<20)
	c := s.AllocAt("C", n, 8, (680<<10)+2048, 1<<20)
	b.Fill(func(i int) float64 { return float64(i % 101) })
	c.Fill(func(i int) float64 { return float64(i % 53) })
	l := &loopir.Loop{
		Name:  "triad",
		Iters: n,
		RO: []loopir.Ref{
			{Array: b, Index: loopir.Ident},
			{Array: c, Index: loopir.Ident},
		},
		Writes:    []loopir.Ref{{Array: a, Index: loopir.Ident}},
		PreCycles: 2, FinalCycles: 1,
		NPre:     1,
		NewPre:   triadPre,
		NewFinal: passPre,
	}
	return s, l, validate(l)
}

func buildTriadConflict(n int) (*memsim.Space, *loopir.Loop, error) {
	s := memsim.NewSpace()
	a := s.AllocAt("A", n, 8, 0, 1<<20)
	b := s.AllocAt("B", n, 8, 0, 1<<20)
	c := s.AllocAt("C", n, 8, 0, 1<<20)
	b.Fill(func(i int) float64 { return float64(i % 101) })
	c.Fill(func(i int) float64 { return float64(i % 53) })
	l := &loopir.Loop{
		Name:  "triad-conflict",
		Iters: n,
		RO: []loopir.Ref{
			{Array: b, Index: loopir.Ident},
			{Array: c, Index: loopir.Ident},
		},
		Writes:    []loopir.Ref{{Array: a, Index: loopir.Ident}},
		PreCycles: 2, FinalCycles: 1,
		NPre:     1,
		NewPre:   triadPre,
		NewFinal: passPre,
	}
	return s, l, validate(l)
}

func buildStencil3(n int) (*memsim.Space, *loopir.Loop, error) {
	s := memsim.NewSpace()
	src := s.Alloc("S", n+2, 8, 4096)
	dst := s.Alloc("D", n, 8, 4096)
	src.Fill(func(i int) float64 { return float64(i % 211) })
	at := func(off int) loopir.Ref {
		return loopir.Ref{Array: src, Index: loopir.Affine{Scale: 1, Offset: off}}
	}
	l := &loopir.Loop{
		Name:  "stencil3",
		Iters: n,
		RO:    []loopir.Ref{at(0), at(1), at(2)},
		Writes: []loopir.Ref{
			{Array: dst, Index: loopir.Ident},
		},
		PreCycles: 4, FinalCycles: 1,
		NPre: 1,
		NewPre: func() func(int, []float64) []float64 {
			return func(_ int, ro []float64) []float64 {
				return []float64{0.25*ro[0] + 0.5*ro[1] + 0.25*ro[2]}
			}
		},
		NewFinal: passPre,
	}
	return s, l, validate(l)
}

func buildGather(n int) (*memsim.Space, *loopir.Loop, error) {
	s := memsim.NewSpace()
	x := s.Alloc("X", n, 8, 4096)
	idx := s.Alloc("IDX", n, 4, 4096)
	a := s.Alloc("A", n, 8, 4096)
	x.Fill(func(i int) float64 { return float64(i % 307) })
	rng := lcg(11)
	idx.Fill(func(int) float64 { return float64(rng.intn(n)) })
	l := &loopir.Loop{
		Name:  "gather",
		Iters: n,
		RO: []loopir.Ref{
			{Array: x, Index: loopir.Indirect{Tbl: idx, Entry: loopir.Ident}},
		},
		Writes:    []loopir.Ref{{Array: a, Index: loopir.Ident}},
		PreCycles: 1, FinalCycles: 1,
		NewFinal: passPre,
		// The gather defeats static prefetch analysis.
		NoCompilerPrefetch: true,
	}
	return s, l, validate(l)
}

func buildHistogram(n int) (*memsim.Space, *loopir.Loop, error) {
	s := memsim.NewSpace()
	bins := n / 64
	if bins < 64 {
		bins = 64
	}
	h := s.Alloc("H", bins, 8, 4096)
	b := s.Alloc("BIN", n, 4, 4096)
	w := s.Alloc("W", n, 8, 4096)
	rng := lcg(23)
	b.Fill(func(int) float64 { return float64(rng.intn(bins)) })
	w.Fill(func(i int) float64 { return 1 + float64(i%7) })
	href := loopir.Ref{Array: h, Index: loopir.Indirect{Tbl: b, Entry: loopir.Ident}}
	l := &loopir.Loop{
		Name:      "histogram",
		Iters:     n,
		RO:        []loopir.Ref{{Array: w, Index: loopir.Ident}},
		RW:        []loopir.Ref{href},
		Writes:    []loopir.Ref{href},
		PreCycles: 0, FinalCycles: 2,
		NewFinal: func() func(int, []float64, []float64) []float64 {
			return func(_ int, pre, rw []float64) []float64 {
				return []float64{rw[0] + pre[0]}
			}
		},
		NoCompilerPrefetch: true,
	}
	return s, l, validate(l)
}

func buildTranspose(n int) (*memsim.Space, *loopir.Loop, error) {
	// Square-ish matrix: rows x cols = n elements, read column-major.
	cols := 1
	for cols*cols < n {
		cols <<= 1
	}
	rows := n / cols
	if rows < 1 {
		rows = 1
	}
	total := rows * cols
	s := memsim.NewSpace()
	in := s.Alloc("IN", total, 8, 4096)
	out := s.Alloc("OUT", total, 8, 4096)
	perm := s.Alloc("PERM", total, 4, 4096)
	in.Fill(func(i int) float64 { return float64(i % 509) })
	perm.Fill(func(i int) float64 {
		r, c := i/cols, i%cols
		return float64(c*rows + r) // column-major source index
	})
	l := &loopir.Loop{
		Name:  "transpose",
		Iters: total,
		RO: []loopir.Ref{
			{Array: in, Index: loopir.Indirect{Tbl: perm, Entry: loopir.Ident}},
		},
		Writes:    []loopir.Ref{{Array: out, Index: loopir.Ident}},
		PreCycles: 0, FinalCycles: 1,
		NewFinal:           passPre,
		NoCompilerPrefetch: true,
	}
	return s, l, validate(l)
}

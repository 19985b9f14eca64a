package repro_test

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/gallery"
	"repro/internal/machine"
	"repro/internal/wave5"
)

// Hot-path benchmarks compare the compiled-plan fast engine (the default)
// against the reference interpreter on the same workloads. Both engines
// are observably identical (TestFastPathEquivalence); the ratio of these
// benchmarks is pure simulator wall-clock speedup. BENCH_hotpath.json
// records representative numbers.

// hotPathEngines names the engine variants for sub-benchmarks: the fast
// engine as configured by default and the reference interpreter.
var hotPathEngines = []struct {
	name string
	cfg  func(machine.Config) machine.Config
}{
	{"fast", func(c machine.Config) machine.Config {
		return c.WithEngine(machine.EngineFast)
	}},
	{"reference", func(c machine.Config) machine.Config {
		return c.WithEngine(machine.EngineReference)
	}},
}

// BenchmarkHotPathSequential runs the full PARMVR mover sequentially on a
// uniprocessor PentiumPro under each engine — the purest view of the
// per-access simulation cost, with no cascade timeline around it.
func BenchmarkHotPathSequential(b *testing.B) {
	for _, e := range hotPathEngines {
		b.Run(e.name, func(b *testing.B) {
			cfg := e.cfg(machine.PentiumPro(1))
			w := wave5.MustBuild(benchParams())
			iters := 0
			for _, l := range w.Loops {
				iters += l.Iters
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, l := range w.Loops {
					cascade.RunSequential(m, l, true)
				}
			}
			b.ReportMetric(float64(iters), "sim-iters/op")
		})
	}
}

// BenchmarkHotPathDense runs the gallery triad — three unit-stride
// streams placed to avoid set conflicts — so nearly every access is a
// same-line L1 hit: the per-access cost of the fast engine's hit path,
// where PARMVR (BenchmarkHotPathSequential) mixes in its conflict misses.
func BenchmarkHotPathDense(b *testing.B) {
	const n = 1 << 16
	var triad gallery.Kernel
	for _, k := range gallery.Kernels() {
		if k.Name == "triad" {
			triad = k
		}
	}
	for _, e := range hotPathEngines {
		b.Run(e.name, func(b *testing.B) {
			cfg := e.cfg(machine.PentiumPro(1))
			space, l, err := triad.Build(n)
			if err != nil {
				b.Fatal(err)
			}
			_ = space
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cascade.RunSequential(m, l, true)
			}
			b.ReportMetric(float64(n), "sim-iters/op")
		})
	}
}

// BenchmarkHotPathCascade runs the PARMVR mover under cascaded execution
// with the restructuring helper on a 4-processor PentiumPro — the
// configuration the figure sweeps spend most of their time in.
func BenchmarkHotPathCascade(b *testing.B) {
	for _, e := range hotPathEngines {
		b.Run(e.name, func(b *testing.B) {
			cfg := e.cfg(machine.PentiumPro(4))
			w := wave5.MustBuild(benchParams())
			opts, err := cascade.NewOptions(
				cascade.WithHelper(cascade.HelperRestructure),
				cascade.WithSpace(w.Space),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, l := range w.Loops {
					if _, err := cascade.Run(m, l, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

package cascade_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gallery"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/wave5"
)

// fastpathVariant is one machine configuration of the differential
// matrix; each runs once per engine.
type fastpathVariant struct {
	name string
	cfg  machine.Config
}

// fastpathConfigs returns both paper machines at reduced processor counts
// (enough to exercise coherence and the cascade timeline without making
// the differential sweep slow), plus a victim-buffer variant (the fast
// path must stay exact while a victim buffer shuffles lines below the
// L1).
func fastpathConfigs() []fastpathVariant {
	victim := machine.PentiumPro(4).WithVictim(16, 2)
	return []fastpathVariant{
		{machine.PentiumPro(4).Name, machine.PentiumPro(4)},
		{machine.R10000(4).Name, machine.R10000(4)},
		{victim.Name + "-victim", victim},
	}
}

// runMode is one execution mode of the differential matrix. run returns
// the machine it simulated on, so the matrix can check its hierarchies'
// invariants afterwards (nil when the mode builds machines of its own).
type runMode struct {
	name string
	run  func(cfg machine.Config, space *memsim.Space, l *loopir.Loop) (cascade.Result, *machine.Machine, error)
}

func runModes(chunkBytes int) []runMode {
	cascaded := func(h cascade.Helper, prior bool) func(machine.Config, *memsim.Space, *loopir.Loop) (cascade.Result, *machine.Machine, error) {
		return func(cfg machine.Config, space *memsim.Space, l *loopir.Loop) (cascade.Result, *machine.Machine, error) {
			m, err := machine.New(cfg)
			if err != nil {
				return cascade.Result{}, nil, err
			}
			opts, err := cascade.NewOptions(
				cascade.WithHelper(h),
				cascade.WithSpace(space),
				cascade.WithChunkBytes(chunkBytes),
				cascade.WithPriorParallel(prior),
			)
			if err != nil {
				return cascade.Result{}, nil, err
			}
			r, err := cascade.Run(m, l, opts)
			return r, m, err
		}
	}
	// The cold modes start from reset caches (PriorParallel off) instead
	// of the prior parallel section's distributed dirty lines.
	return []runMode{
		{"sequential", func(cfg machine.Config, _ *memsim.Space, l *loopir.Loop) (cascade.Result, *machine.Machine, error) {
			m, err := machine.New(cfg)
			if err != nil {
				return cascade.Result{}, nil, err
			}
			return cascade.RunSequential(m, l, true), m, nil
		}},
		{"cascade-prefetch", cascaded(cascade.HelperPrefetch, true)},
		{"cascade-restructure", cascaded(cascade.HelperRestructure, true)},
		{"cascade-prefetch-cold", cascaded(cascade.HelperPrefetch, false)},
		{"cascade-restructure-cold", cascaded(cascade.HelperRestructure, false)},
		{"parallel", func(cfg machine.Config, _ *memsim.Space, l *loopir.Loop) (cascade.Result, *machine.Machine, error) {
			m, err := machine.New(cfg)
			if err != nil {
				return cascade.Result{}, nil, err
			}
			r, err := cascade.RunParallel(m, l, false)
			return r, m, err
		}},
		{"unbounded", func(cfg machine.Config, space *memsim.Space, l *loopir.Loop) (cascade.Result, *machine.Machine, error) {
			opts, err := cascade.NewOptions(
				cascade.WithHelper(cascade.HelperRestructure),
				cascade.WithSpace(space),
				cascade.WithChunkBytes(chunkBytes),
			)
			if err != nil {
				return cascade.Result{}, nil, err
			}
			r, err := cascade.RunUnbounded(cfg, l, opts)
			return r, nil, err
		}},
	}
}

// checkInclusion asserts the hierarchy invariants the cache fill path
// relies on without re-checking them (see cache.Hierarchy.fillL1): every
// L1 line lies in an L2 line of every processor, and a Modified L1 line's
// L2 line is Modified.
func checkInclusion(t *testing.T, engine string, m *machine.Machine) {
	t.Helper()
	if m == nil {
		return
	}
	for p := 0; p < m.Procs(); p++ {
		if err := m.Proc(p).Hierarchy().CheckInclusion(); err != nil {
			t.Errorf("%s engine, p%d: %v", engine, p, err)
		}
	}
}

// diffResults asserts that the fast and reference engines produced
// observably identical runs: same cycle counts, same phase breakdown,
// and bit-identical metric snapshots (every cache/TLB/bus counter on
// every processor).
func diffResults(t *testing.T, fast, ref cascade.Result) {
	t.Helper()
	if fast.Cycles != ref.Cycles {
		t.Errorf("cycles diverge: fast %d, reference %d", fast.Cycles, ref.Cycles)
	}
	if fast.ExecCycles != ref.ExecCycles || fast.HelperCycles != ref.HelperCycles ||
		fast.TransferCycles != ref.TransferCycles || fast.HelperIters != ref.HelperIters {
		t.Errorf("phase breakdown diverges:\nfast %+v\nref  %+v",
			[4]int64{fast.ExecCycles, fast.HelperCycles, fast.TransferCycles, int64(fast.HelperIters)},
			[4]int64{ref.ExecCycles, ref.HelperCycles, ref.TransferCycles, int64(ref.HelperIters)})
	}
	if fast.L1 != ref.L1 {
		t.Errorf("L1 stats diverge:\nfast %+v\nref  %+v", fast.L1, ref.L1)
	}
	if fast.L2 != ref.L2 {
		t.Errorf("L2 stats diverge:\nfast %+v\nref  %+v", fast.L2, ref.L2)
	}
	if !reflect.DeepEqual(fast.Metrics, ref.Metrics) {
		for _, n := range ref.Metrics.Names() {
			if fast.Metrics.Get(n) != ref.Metrics.Get(n) {
				t.Errorf("metric %s diverges: fast %d, reference %d", n, fast.Metrics.Get(n), ref.Metrics.Get(n))
			}
		}
		for _, n := range fast.Metrics.Names() {
			if _, ok := ref.Metrics[n]; !ok {
				t.Errorf("metric %s present only under fast engine", n)
			}
		}
	}
}

// TestFastPathEquivalence is the tentpole's differential test: the
// compiled-plan engine plus the hierarchy's same-line fast path must be
// observably identical to the reference interpreter with full lookups —
// bit-identical metric snapshots and cycle counts — on the PARMVR loops
// and every gallery kernel, under all run modes (including
// coherence-active multi-processor cascades), on both machines, with the
// victim buffer on and off.
func TestFastPathEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: the equivalence matrix covers every kernel, mode, and machine")
	}
	const chunkBytes = 8 * 1024
	for _, v := range fastpathConfigs() {
		cfg := v.cfg
		for _, mode := range runModes(chunkBytes) {
			t.Run(fmt.Sprintf("%s/%s/parmvr", v.name, mode.name), func(t *testing.T) {
				p := wave5.DefaultParams().Scaled(0.02)
				wFast := wave5.MustBuild(p)
				wRef := wave5.MustBuild(p)
				for li := range wFast.Loops {
					fast, mFast, err := mode.run(cfg.WithEngine(machine.EngineFast), wFast.Space, wFast.Loops[li])
					if err != nil {
						t.Fatalf("fast engine, loop %d: %v", li, err)
					}
					ref, mRef, err := mode.run(cfg.WithEngine(machine.EngineReference), wRef.Space, wRef.Loops[li])
					if err != nil {
						t.Fatalf("reference engine, loop %d: %v", li, err)
					}
					if t.Failed() {
						break
					}
					checkInclusion(t, "fast", mFast)
					checkInclusion(t, "reference", mRef)
					diffResults(t, fast, ref)
					if t.Failed() {
						t.Logf("first divergence in PARMVR loop %d (%s)", li, wFast.Loops[li].Name)
						break
					}
				}
			})
			t.Run(fmt.Sprintf("%s/%s/gallery", v.name, mode.name), func(t *testing.T) {
				const n = 1 << 12
				for _, k := range gallery.Kernels() {
					spaceFast, loopFast, err := k.Build(n)
					if err != nil {
						t.Fatalf("%s: %v", k.Name, err)
					}
					spaceRef, loopRef, err := k.Build(n)
					if err != nil {
						t.Fatalf("%s: %v", k.Name, err)
					}
					fast, mFast, err := mode.run(cfg.WithEngine(machine.EngineFast), spaceFast, loopFast)
					if err != nil {
						t.Fatalf("%s fast engine: %v", k.Name, err)
					}
					ref, mRef, err := mode.run(cfg.WithEngine(machine.EngineReference), spaceRef, loopRef)
					if err != nil {
						t.Fatalf("%s reference engine: %v", k.Name, err)
					}
					checkInclusion(t, "fast", mFast)
					checkInclusion(t, "reference", mRef)
					diffResults(t, fast, ref)
					if t.Failed() {
						t.Fatalf("first divergence in kernel %s", k.Name)
					}
				}
			})
		}
	}
}

package cascade

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// resultDiff asserts two runs are observably identical: cycle counts,
// phase breakdown, cache statistics, and every metric snapshot. got is
// the run under test, want the run it must match.
func resultDiff(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles diverge: fast %d, reference %d", label, got.Cycles, want.Cycles)
	}
	if got.ExecCycles != want.ExecCycles || got.HelperCycles != want.HelperCycles ||
		got.TransferCycles != want.TransferCycles || got.HelperIters != want.HelperIters {
		t.Errorf("%s: phase breakdown diverges:\nfast      %+v\nreference %+v", label,
			[4]int64{got.ExecCycles, got.HelperCycles, got.TransferCycles, int64(got.HelperIters)},
			[4]int64{want.ExecCycles, want.HelperCycles, want.TransferCycles, int64(want.HelperIters)})
	}
	if got.L1 != want.L1 {
		t.Errorf("%s: L1 stats diverge:\nfast      %+v\nreference %+v", label, got.L1, want.L1)
	}
	if got.L2 != want.L2 {
		t.Errorf("%s: L2 stats diverge:\nfast      %+v\nreference %+v", label, got.L2, want.L2)
	}
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		for _, n := range want.Metrics.Names() {
			if got.Metrics.Get(n) != want.Metrics.Get(n) {
				t.Errorf("%s: metric %s diverges: fast %d, reference %d",
					label, n, got.Metrics.Get(n), want.Metrics.Get(n))
			}
		}
	}
}

// TestRandomLoopEngineDifferential is the fast engine's randomized
// oracle: over a thousand structurally random loops — affine and indirect
// streams, scatters, random strides and placements — the compiled fast
// engine must produce bit-identical cycles, statistics, and metrics to
// the reference interpreter, across rotating machines, processor counts,
// run modes, and chunk sizes.
func TestRandomLoopEngineDifferential(t *testing.T) {
	seeds := 1024
	if testing.Short() {
		seeds = 64
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) ^ 0xC0A1E5CE))
		var cfg machine.Config
		if rng.Intn(2) == 0 {
			cfg = machine.PentiumPro(1 + rng.Intn(4))
		} else {
			cfg = machine.R10000(1 + rng.Intn(4))
		}
		mode := rng.Intn(3)
		chunk := 512 << rng.Intn(6)

		run := func(cfg machine.Config, space *memsim.Space, l *loopir.Loop) Result {
			m := machine.MustNew(cfg)
			if mode == 0 {
				return RunSequential(m, l, true)
			}
			opts := DefaultOptions(Helper(mode-1), space)
			opts.ChunkBytes = chunk
			res, err := Run(m, l, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}

		sFast, lFast := randomLoop(int64(seed))
		sRef, lRef := randomLoop(int64(seed))
		fast := run(cfg.WithEngine(machine.EngineFast), sFast, lFast)
		ref := run(cfg.WithEngine(machine.EngineReference), sRef, lRef)
		resultDiff(t, lFast.Name, fast, ref)
		if eq, idx := lFast.Writes[0].Array.Equal(lRef.Writes[0].Array.Snapshot()); !eq {
			t.Errorf("seed %d: output values diverge at element %d", seed, idx)
		}

		if t.Failed() {
			t.Fatalf("first divergence at seed %d (machine %s/%d, mode %d, chunk %d)",
				seed, cfg.Name, cfg.Procs, mode, chunk)
		}
	}
}

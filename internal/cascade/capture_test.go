package cascade_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cascade"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/wave5"
)

// captureCase is one trial of the packed-capture differential: a machine,
// an engine, a strategy, and a loop source that builds identical fresh
// copies of one loop over its own address space.
type captureCase struct {
	cfg    machine.Config
	helper cascade.Helper
	seq    bool
	chunk  int
	build  func() (*memsim.Space, *loopir.Loop)
	name   string
}

// randomCaptureCase draws a preset at a random processor count, a random
// engine and strategy, and either a PARMVR loop or a random loop.
func randomCaptureCase(rng *rand.Rand, p wave5.Params) captureCase {
	var c captureCase
	if rng.Intn(2) == 0 {
		c.cfg = machine.PentiumPro(1 + rng.Intn(4))
	} else {
		c.cfg = machine.R10000(1 + rng.Intn(8))
	}
	if rng.Intn(2) == 0 {
		c.cfg = c.cfg.WithEngine(machine.EngineReference)
	}
	switch rng.Intn(3) {
	case 0:
		c.seq = true
	case 1:
		c.helper = cascade.HelperPrefetch
	default:
		c.helper = cascade.HelperRestructure
	}
	c.chunk = 1024 << rng.Intn(7)
	if rng.Intn(2) == 0 {
		li := rng.Intn(len(wave5.MustBuild(p).Loops))
		c.build = func() (*memsim.Space, *loopir.Loop) {
			w := wave5.MustBuild(p)
			return w.Space, w.Loops[li]
		}
		c.name = fmt.Sprintf("parmvr[%d]", li)
	} else {
		seed := rng.Int63()
		c.build = func() (*memsim.Space, *loopir.Loop) { return cascade.RandomLoop(seed) }
		c.name = fmt.Sprintf("rand%d", seed)
	}
	strategy := c.helper.String()
	if c.seq {
		strategy = "sequential"
	}
	c.name = fmt.Sprintf("%s/%s/%dp/%s", c.name, c.cfg.Engine, c.cfg.Procs, strategy)
	return c
}

// run runs the case's loop on m: cold (cache reset and prior-parallel
// distribution simulated by the runner) or keeping m's state as it stands.
func (c captureCase) run(t *testing.T, m *machine.Machine, s *memsim.Space, l *loopir.Loop, keep bool) cascade.Result {
	t.Helper()
	if c.seq {
		if keep {
			return cascade.RunSequentialWarm(m, l)
		}
		return cascade.RunSequential(m, l, true)
	}
	opts, err := cascade.NewOptions(
		cascade.WithHelper(c.helper),
		cascade.WithSpace(s),
		cascade.WithChunkBytes(c.chunk),
		cascade.WithKeepState(keep),
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cascade.Run(m, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// spaceValues is every array's values, by array name.
func spaceValues(s *memsim.Space) map[string][]float64 {
	out := map[string][]float64{}
	for _, a := range s.Arrays() {
		out[a.Name()] = a.Snapshot()
	}
	return out
}

// TestCaptureDifferential pins the packed start state the fig2/fig6
// prefixes hand their points: loading a capture of a loop's cold start
// (caches reset, the loop's data distributed by the prior parallel
// section) and running with KeepState must equal running the loop cold —
// same Result, same metrics snapshot, same array values — on random
// presets, processor counts, engines, strategies and loops. The capture
// is loaded into a machine dirtied by an unrelated run, twice, so loading
// must fully replace state and must leave the capture intact.
func TestCaptureDifferential(t *testing.T) {
	trials := 64
	if testing.Short() {
		trials = 12
	}
	p := wave5.DefaultParams().Scaled(0.01)
	rng := rand.New(rand.NewSource(0xc4a7))
	for trial := 0; trial < trials; trial++ {
		c := randomCaptureCase(rng, p)
		t.Run(c.name, func(t *testing.T) {
			sCold, lCold := c.build()
			cold := c.run(t, machine.MustNew(c.cfg), sCold, lCold, false)
			want := spaceValues(sCold)

			src := machine.MustNew(c.cfg)
			_, lSrc := c.build()
			cascade.ColdStart(src, lSrc, true)
			capture, err := src.Capture()
			if err != nil {
				t.Fatal(err)
			}

			m := machine.MustNew(c.cfg)
			sDirty, lDirty := cascade.RandomLoop(int64(trial))
			if _, err := cascade.Run(m, lDirty, cascade.DefaultOptions(cascade.HelperRestructure, sDirty)); err != nil {
				t.Fatal(err)
			}
			for load := 0; load < 2; load++ {
				if err := m.LoadCapture(capture); err != nil {
					t.Fatal(err)
				}
				s, l := c.build()
				got := c.run(t, m, s, l, true)
				if got.Cycles != cold.Cycles {
					t.Errorf("load %d: cycles %d, cold %d", load, got.Cycles, cold.Cycles)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Errorf("load %d: Result or metrics differ from the cold run", load)
				}
				if !reflect.DeepEqual(spaceValues(s), want) {
					t.Errorf("load %d: array values differ from the cold run", load)
				}
			}
		})
	}
}

// TestCaptureRejectsShapeChanges pins that a capture only loads into a
// machine of the captured shape.
func TestCaptureRejectsShapeChanges(t *testing.T) {
	capture, err := machine.MustNew(machine.PentiumPro(4)).Capture()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []machine.Config{machine.PentiumPro(2), machine.R10000(4), machine.PentiumPro(4).WithVictim(16, 2)} {
		if err := machine.MustNew(cfg).LoadCapture(capture); err == nil {
			t.Errorf("capture of PentiumPro/4 loaded into %s/%d (victim %d)", cfg.Name, cfg.Procs, cfg.VictimEntries)
		}
	}
	if err := machine.MustNew(machine.PentiumPro(4).WithEngine(machine.EngineReference)).LoadCapture(capture); err != nil {
		t.Errorf("engine change rejected: %v", err)
	}
}

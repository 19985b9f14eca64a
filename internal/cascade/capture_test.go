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

// The warm-prefix differentials: a tail run from a machine loaded with a
// capture of a warm prefix, over a space loaded with the prefix's space
// checkpoint, must be bit-identical — Result, every metric, every array
// value — to the same prefix and tail run on one fresh machine. This is
// what the experiments' warm prefixes (PrefixState.fork) do per point.

// tailSpec is one divergent tail run off a shared prefix.
type tailSpec struct {
	name      string
	chunk     int
	helper    cascade.Helper
	keepState bool
}

func forkTails() []tailSpec {
	return []tailSpec{
		{name: "warm-prefetch-64k", chunk: 64 << 10, helper: cascade.HelperPrefetch, keepState: true},
		{name: "warm-prefetch-8k", chunk: 8 << 10, helper: cascade.HelperPrefetch, keepState: true},
		{name: "warm-restructure-16k", chunk: 16 << 10, helper: cascade.HelperRestructure, keepState: true},
		{name: "replay-prefetch", chunk: 4 << 10, helper: cascade.HelperPrefetch},
		{name: "replay-restructure", chunk: 8 << 10, helper: cascade.HelperRestructure},
	}
}

// warmPrefix runs the shared prefix of the fork tests on a fresh machine:
// one full cascaded call of the seed loop with its data distributed by
// the prior parallel section, leaving warm caches.
func warmPrefix(t *testing.T, cfg machine.Config, seed int64, chunk int) (*machine.Machine, *memsim.Space, *loopir.Loop) {
	t.Helper()
	s, l := cascade.RandomLoop(seed)
	m := machine.MustNew(cfg)
	opts := cascade.Options{Helper: cascade.HelperPrefetch, ChunkBytes: chunk, JumpOut: true, Space: s, PriorParallel: true}
	if _, err := cascade.Run(m, l, opts); err != nil {
		t.Fatal(err)
	}
	return m, s, l
}

// loadWarm builds a machine of cfg holding capture and a fresh copy of
// the seed loop whose space holds the checkpointed values.
func loadWarm(t *testing.T, cfg machine.Config, capture *machine.Capture, seed int64, ck *memsim.SpaceState) (*machine.Machine, *memsim.Space, *loopir.Loop) {
	t.Helper()
	m := machine.MustNew(cfg)
	if err := m.LoadCapture(capture); err != nil {
		t.Fatal(err)
	}
	s, l := cascade.RandomLoop(seed)
	if err := s.LoadState(ck); err != nil {
		t.Fatal(err)
	}
	return m, s, l
}

// TestForkDifferential runs divergent tails off one captured prefix and
// checks each against a twin that ran the identical prefix and tail on a
// fresh machine, with no capture involved.
func TestForkDifferential(t *testing.T) {
	const seed = 41
	cfg := machine.PentiumPro(4)
	mWarm, sWarm, _ := warmPrefix(t, cfg, seed, 16<<10)
	capture, err := mWarm.Capture()
	if err != nil {
		t.Fatal(err)
	}
	spaceCk := sWarm.Checkpoint()

	for _, spec := range forkTails() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			m, s, l := loadWarm(t, cfg, capture, seed, spaceCk)
			tail := cascade.Options{Helper: spec.helper, ChunkBytes: spec.chunk, JumpOut: true, KeepState: spec.keepState, Space: s}
			warmRes, err := cascade.Run(m, l, tail)
			if err != nil {
				t.Fatal(err)
			}

			// Fresh path: identical prefix and tail on one machine.
			mFresh, sFresh, lFresh := warmPrefix(t, cfg, seed, 16<<10)
			tail.Space = sFresh
			freshRes, err := cascade.Run(mFresh, lFresh, tail)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(warmRes, freshRes) {
				t.Errorf("tail Result from the capture differs from the fresh run:\nwarm:  %+v\nfresh: %+v", warmRes, freshRes)
			}
			if !reflect.DeepEqual(spaceValues(s), spaceValues(sFresh)) {
				t.Error("array values from the capture differ from the fresh run")
			}
		})
	}
}

// TestForkSharesUntouchedComponents pins the untouched marks: a machine
// loaded from a capture reports every component untouched until a run
// reaches it, a machine never loaded reports none, and running one
// machine off a capture leaves another loaded from it untouched and able
// to run the identical tail to the identical Result.
func TestForkSharesUntouchedComponents(t *testing.T) {
	const seed = 7
	cfg := machine.PentiumPro(4)
	m, s, _ := warmPrefix(t, cfg, seed, 16<<10)
	if got := m.UntouchedComponents(); len(got) != 0 {
		t.Fatalf("machine never loaded from a capture reports %v untouched", got)
	}
	capture, err := m.Capture()
	if err != nil {
		t.Fatal(err)
	}
	ck := s.Checkpoint()

	const want = 4 * 3 // 4 procs x (l1, l2, tlb); no victim buffer configured
	a, sa, la := loadWarm(t, cfg, capture, seed, ck)
	b, sb, lb := loadWarm(t, cfg, capture, seed, ck)
	if got := a.UntouchedComponents(); len(got) != want {
		t.Fatalf("loaded machine reports %d untouched components (%v), want %d", len(got), got, want)
	}
	tail := cascade.Options{Helper: cascade.HelperPrefetch, ChunkBytes: 16 << 10, JumpOut: true, KeepState: true}
	tail.Space = sa
	ra, err := cascade.Run(a, la, tail)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.UntouchedComponents()); got == want {
		t.Fatalf("machine still reports all %d components untouched after running a tail", got)
	}
	if got := len(b.UntouchedComponents()); got != want {
		t.Fatalf("second machine reports %d of %d components untouched without running anything", got, want)
	}
	tail.Space = sb
	rb, err := cascade.Run(b, lb, tail)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cycles <= 0 || !reflect.DeepEqual(ra, rb) {
		t.Fatalf("two tails off one capture differ (cycles %d, %d)", ra.Cycles, rb.Cycles)
	}
}

// TestRandomForkDifferential is the randomized variant: for each seed, a
// random tail run off a random captured prefix must match its fresh twin
// bitwise. The full 1024-seed sweep runs in regular mode; -short trims it.
func TestRandomForkDifferential(t *testing.T) {
	seeds := 1024
	if testing.Short() {
		seeds = 32
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) ^ 0xf02c))
		var cfg machine.Config
		if rng.Intn(2) == 0 {
			cfg = machine.PentiumPro(2 + rng.Intn(3))
		} else {
			cfg = machine.R10000(2 + rng.Intn(3))
		}
		prefixChunk := 1 << (10 + rng.Intn(5))
		tail := cascade.Options{
			Helper:     cascade.Helper(rng.Intn(2)),
			ChunkBytes: 1 << (10 + rng.Intn(5)),
			JumpOut:    rng.Intn(4) != 0,
			KeepState:  true,
		}

		mW, sW, _ := warmPrefix(t, cfg, int64(seed), prefixChunk)
		capture, err := mW.Capture()
		if err != nil {
			t.Fatalf("seed %d capture: %v", seed, err)
		}
		m, s, l := loadWarm(t, cfg, capture, int64(seed), sW.Checkpoint())
		tail.Space = s
		warmRes, err := cascade.Run(m, l, tail)
		if err != nil {
			t.Fatalf("seed %d warm tail: %v", seed, err)
		}

		mF, sF, lF := warmPrefix(t, cfg, int64(seed), prefixChunk)
		tail.Space = sF
		freshRes, err := cascade.Run(mF, lF, tail)
		if err != nil {
			t.Fatalf("seed %d fresh tail: %v", seed, err)
		}

		if !reflect.DeepEqual(warmRes, freshRes) {
			t.Fatalf("seed %d (cfg %s/%d, tail %+v): Result from the capture differs from fresh", seed, cfg.Name, cfg.Procs, tail)
		}
		if !reflect.DeepEqual(spaceValues(s), spaceValues(sF)) {
			t.Fatalf("seed %d: array values from the capture differ from fresh", seed)
		}
	}
}

// TestForkRejectsShapeChanges pins the load-compatibility contract beyond
// TestCaptureRejectsShapeChanges: neither capturing nor loading works
// with a classification shadow attached.
func TestForkRejectsShapeChanges(t *testing.T) {
	_, l := cascade.RandomLoop(3)
	m := machine.MustNew(machine.PentiumPro(2))
	cascade.RunSequential(m, l, false)
	capture, err := m.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.MustNew(machine.PentiumPro(4)).LoadCapture(capture); err == nil {
		t.Error("LoadCapture accepted a processor-count change")
	}
	classified := machine.MustNew(machine.PentiumPro(2))
	classified.EnableClassification()
	if _, err := classified.Capture(); err == nil {
		t.Error("Capture accepted a machine with classification enabled")
	}
	if err := classified.LoadCapture(capture); err == nil {
		t.Error("LoadCapture accepted a machine with classification enabled")
	}
}

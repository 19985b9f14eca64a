package cascade

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
)

// The snapshot/fork differential suite: a run continued from a forked
// machine (and a rewound address space) must be bit-identical — Result,
// every metric, every array value — to the same run performed fresh,
// with the host-parallel engine knob in both positions. These tests are the tentpole's correctness bar.

// tailSpec is one divergent tail forked off a shared prefix.
type tailSpec struct {
	name      string
	chunk     int
	helper    Helper
	keepState bool
	parallel  machine.Parallel
}

func forkTails() []tailSpec {
	return []tailSpec{
		{name: "warm-prefetch-64k", chunk: 64 << 10, helper: HelperPrefetch, keepState: true},
		{name: "warm-prefetch-8k", chunk: 8 << 10, helper: HelperPrefetch, keepState: true},
		{name: "warm-restructure-16k", chunk: 16 << 10, helper: HelperRestructure, keepState: true},
		{name: "replay-parallel-on", chunk: 4 << 10, helper: HelperPrefetch, parallel: machine.ParallelOn},
		{name: "replay-parallel-off", chunk: 4 << 10, helper: HelperPrefetch},
		{name: "replay-restructure-parallel", chunk: 8 << 10, helper: HelperRestructure, parallel: machine.ParallelOn},
	}
}

// TestForkDifferential forks divergent tails off one shared prefix and
// checks each against a twin that ran the identical prefix+tail on a
// fresh machine, with no snapshot involved.
func TestForkDifferential(t *testing.T) {
	const seed = 41
	cfg := machine.PentiumPro(4)

	// Shared prefix, captured once: one full cascaded call of the seed
	// loop (dataset build + distribute + run), leaving warm caches.
	sWarm, lWarm := randomLoop(seed)
	mWarm := machine.MustNew(cfg)
	popts := Options{Helper: HelperPrefetch, ChunkBytes: 16 << 10, JumpOut: true, Space: sWarm, PriorParallel: true}
	if _, err := Run(mWarm, lWarm, popts); err != nil {
		t.Fatal(err)
	}
	snap, err := mWarm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spaceCk := sWarm.Checkpoint()

	for _, spec := range forkTails() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			// Warm path: fork from the snapshot, rewind the space, run the tail.
			fork, err := snap.Fork(machine.WithParallel(spec.parallel))
			if err != nil {
				t.Fatal(err)
			}
			sWarm.RestoreState(spaceCk)
			warmOpts := Options{Helper: spec.helper, ChunkBytes: spec.chunk, JumpOut: true, KeepState: spec.keepState, Space: sWarm}
			warmRes, err := Run(fork, lWarm, warmOpts)
			if err != nil {
				t.Fatal(err)
			}
			warmVals := lWarm.Writes[0].Array.Snapshot()
			warmMetrics := fork.Metrics().Snapshot()

			// Fresh path: identical prefix + identical tail, no snapshot.
			sFresh, lFresh := randomLoop(seed)
			mFresh := machine.MustNew(cfg.WithParallel(spec.parallel))
			// The prefix must be simulated under the *base* knobs the warm
			// prefix used — but Parallel cannot change simulated results
			// (asserted by the parallel-engine differentials), so running
			// it under the tail's knobs reaches the same machine state.
			pf := Options{Helper: HelperPrefetch, ChunkBytes: 16 << 10, JumpOut: true, Space: sFresh, PriorParallel: true}
			if _, err := Run(mFresh, lFresh, pf); err != nil {
				t.Fatal(err)
			}
			freshOpts := Options{Helper: spec.helper, ChunkBytes: spec.chunk, JumpOut: true, KeepState: spec.keepState, Space: sFresh}
			freshRes, err := Run(mFresh, lFresh, freshOpts)
			if err != nil {
				t.Fatal(err)
			}
			freshVals := lFresh.Writes[0].Array.Snapshot()

			if !reflect.DeepEqual(warmRes, freshRes) {
				t.Errorf("forked tail Result differs from fresh run:\nwarm:  %+v\nfresh: %+v", warmRes, freshRes)
			}
			if len(warmVals) != len(freshVals) {
				t.Fatalf("value lengths differ: %d vs %d", len(warmVals), len(freshVals))
			}
			for i := range warmVals {
				if warmVals[i] != freshVals[i] {
					t.Fatalf("array values diverge at %d: %v vs %v", i, warmVals[i], freshVals[i])
				}
			}

			// Metrics conservation across the fork boundary: the prefix
			// capture plus the tail's deltas must equal the fresh twin's
			// prefix capture plus its tail deltas (the PR 1 identity,
			// extended across Fork).
			wantMerged := metrics.Merge(snap.Metrics(), freshRes.Metrics)
			gotMerged := metrics.Merge(snap.Metrics(), warmRes.Metrics)
			if !reflect.DeepEqual(gotMerged, wantMerged) {
				t.Errorf("metrics conservation violated across fork")
			}
			_ = warmMetrics
		})
	}
}

// TestForkSharesUntouchedComponents pins the copy-on-write contract: a
// fork that has run nothing still shares every component with the
// snapshot, and running a tail dirties only what the tail touched.
func TestForkSharesUntouchedComponents(t *testing.T) {
	s, l := randomLoop(7)
	m := machine.MustNew(machine.PentiumPro(4))
	opts := Options{Helper: HelperPrefetch, ChunkBytes: 16 << 10, JumpOut: true, Space: s, PriorParallel: true}
	if _, err := Run(m, l, opts); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	shared := fork.SharedComponents()
	want := 4 * 3 // 4 procs x (l1, l2, tlb); no victim buffer configured
	if len(shared) != want {
		t.Fatalf("fresh fork shares %d components (%v), want %d", len(shared), shared, want)
	}
	// The snapshotted machine itself also still shares everything.
	if got := len(m.SharedComponents()); got != want {
		t.Fatalf("snapshotted machine shares %d components, want %d", got, want)
	}
	// Running the original machine dirties its components without
	// disturbing the fork's view.
	ck := s.Checkpoint()
	if _, err := Run(m, l, Options{Helper: HelperPrefetch, ChunkBytes: 16 << 10, JumpOut: true, KeepState: true, Space: s}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.SharedComponents()); got == want {
		t.Fatalf("machine still shares all %d components after running a tail", got)
	}
	if got := len(fork.SharedComponents()); got != want {
		t.Fatalf("fork lost sharing (%d of %d) without running anything", got, want)
	}
	s.RestoreState(ck)
	// The fork now runs the identical tail and must see identical results
	// even though the parent diverged first.
	res, err := Run(fork, l, Options{Helper: HelperPrefetch, ChunkBytes: 16 << 10, JumpOut: true, KeepState: true, Space: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("fork tail ran no cycles")
	}
}

// TestCheckpointResumeBitIdentical checks the time-travel path: a run
// observed by a checkpoint sink equals the unobserved run, and resuming
// from every captured checkpoint reproduces the uninterrupted Result and
// final array values exactly.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const seed = 99
	cfg := machine.PentiumPro(3)

	// Baseline: uninterrupted, no sink.
	sBase, lBase := randomLoop(seed)
	optsBase := Options{Helper: HelperRestructure, ChunkBytes: 8 << 10, JumpOut: true, Space: sBase, PriorParallel: true}
	baseRes, err := Run(machine.MustNew(cfg), lBase, optsBase)
	if err != nil {
		t.Fatal(err)
	}
	baseVals := lBase.Writes[0].Array.Snapshot()

	// Observed run: same everything plus a sink.
	var cks []*Checkpoint
	s, l := randomLoop(seed)
	opts := optsBase
	opts.Space = s
	opts.CheckpointSink = func(ck *Checkpoint) { cks = append(cks, ck) }
	sinkRes, err := Run(machine.MustNew(cfg, machine.WithCheckpointEvery(300)), l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sinkRes, baseRes) {
		t.Errorf("run with checkpoint sink differs from run without:\nsink: %+v\nbase: %+v", sinkRes, baseRes)
	}
	if len(cks) == 0 {
		t.Fatal("sink captured no checkpoints")
	}
	for i := 1; i < len(cks); i++ {
		if cks[i].Iter <= cks[i-1].Iter {
			t.Fatalf("checkpoint iterations not increasing: %d then %d", cks[i-1].Iter, cks[i].Iter)
		}
	}

	opts.CheckpointSink = nil
	for i, ck := range cks {
		res, err := Resume(l, opts, ck)
		if err != nil {
			t.Fatalf("resume from checkpoint %d (iter %d): %v", i, ck.Iter, err)
		}
		if !reflect.DeepEqual(res, baseRes) {
			t.Errorf("resume from iter %d: Result differs from uninterrupted run\ngot:  %+v\nwant: %+v", ck.Iter, res, baseRes)
		}
		got := l.Writes[0].Array.Snapshot()
		for j := range got {
			if got[j] != baseVals[j] {
				t.Fatalf("resume from iter %d: values diverge at %d", ck.Iter, j)
			}
		}
	}

	// Inspection is read-only: rendering every checkpoint must not
	// disturb a subsequent resume.
	for _, ck := range cks {
		insp := ck.Snap.Inspect()
		if len(insp.Procs) != cfg.Procs {
			t.Fatalf("Inspect covers %d procs, want %d", len(insp.Procs), cfg.Procs)
		}
	}
	if _, err := Resume(l, opts, cks[0]); err != nil {
		t.Fatalf("resume after inspection: %v", err)
	}
}

// TestRandomForkDifferential is the randomized variant: for each seed, a
// random tail forked off a random prefix must match its fresh twin
// bitwise. The full 1024-seed sweep runs in regular mode; -short trims it.
func TestRandomForkDifferential(t *testing.T) {
	seeds := 1024
	if testing.Short() {
		seeds = 32
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(int64(seed) ^ 0xf02c))
		var cfg machine.Config
		if rng.Intn(2) == 0 {
			cfg = machine.PentiumPro(2 + rng.Intn(3))
		} else {
			cfg = machine.R10000(2 + rng.Intn(3))
		}
		prefixChunk := 1 << (10 + rng.Intn(5))
		tail := Options{
			Helper:     Helper(rng.Intn(2)),
			ChunkBytes: 1 << (10 + rng.Intn(5)),
			JumpOut:    rng.Intn(4) != 0,
			KeepState:  true,
		}

		// Warm twin.
		sW, lW := randomLoop(int64(seed))
		mW := machine.MustNew(cfg)
		pf := Options{Helper: HelperPrefetch, ChunkBytes: prefixChunk, JumpOut: true, Space: sW, PriorParallel: true}
		if _, err := Run(mW, lW, pf); err != nil {
			t.Fatalf("seed %d prefix: %v", seed, err)
		}
		snap, err := mW.Snapshot()
		if err != nil {
			t.Fatalf("seed %d snapshot: %v", seed, err)
		}
		spaceCk := sW.Checkpoint()
		fork, err := snap.Fork()
		if err != nil {
			t.Fatalf("seed %d fork: %v", seed, err)
		}
		sW.RestoreState(spaceCk)
		wOpts := tail
		wOpts.Space = sW
		warmRes, err := Run(fork, lW, wOpts)
		if err != nil {
			t.Fatalf("seed %d warm tail: %v", seed, err)
		}
		warmVals := lW.Writes[0].Array.Snapshot()

		// Fresh twin.
		sF, lF := randomLoop(int64(seed))
		mF := machine.MustNew(cfg)
		pfF := pf
		pfF.Space = sF
		if _, err := Run(mF, lF, pfF); err != nil {
			t.Fatalf("seed %d fresh prefix: %v", seed, err)
		}
		fOpts := tail
		fOpts.Space = sF
		freshRes, err := Run(mF, lF, fOpts)
		if err != nil {
			t.Fatalf("seed %d fresh tail: %v", seed, err)
		}
		freshVals := lF.Writes[0].Array.Snapshot()

		if !reflect.DeepEqual(warmRes, freshRes) {
			t.Fatalf("seed %d (cfg %s/%d, tail %+v): forked Result differs from fresh", seed, cfg.Name, cfg.Procs, tail)
		}
		for i := range warmVals {
			if warmVals[i] != freshVals[i] {
				t.Fatalf("seed %d: values diverge at %d", seed, i)
			}
		}
	}
}

// TestForkRejectsShapeChanges pins the fork-compatibility contract.
func TestForkRejectsShapeChanges(t *testing.T) {
	_, l := randomLoop(3)
	m := machine.MustNew(machine.PentiumPro(2))
	RunSequential(m, l, false)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Fork(machine.WithProcs(4)); err == nil {
		t.Error("Fork accepted a processor-count change")
	}
	if _, err := snap.Fork(machine.WithParallel(machine.ParallelOn)); err != nil {
		t.Errorf("Fork rejected speed-knob changes: %v", err)
	}
	// Snapshot must refuse while classification shadows are attached.
	m2 := machine.MustNew(machine.PentiumPro(2))
	m2.EnableClassification()
	if _, err := m2.Snapshot(); err == nil {
		t.Error("Snapshot accepted a machine with classification enabled")
	}
}

func init() {
	// Guard against accidental Helper enum growth breaking the specs above.
	if HelperPrefetch != 0 || HelperRestructure != 1 {
		panic(fmt.Sprintf("helper enum moved: %d %d", HelperPrefetch, HelperRestructure))
	}
}

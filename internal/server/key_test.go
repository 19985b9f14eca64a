package server

import (
	"testing"

	"repro/internal/canon"
	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/wave5"
)

// defaultOpts returns the paper's headline options via the builder.
func defaultOpts(t *testing.T) cascade.Options {
	t.Helper()
	opts, err := cascade.NewOptions()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestPointKeySemanticEquality pins the cache-key invariant that makes
// memoization sound: configurations with identical observable semantics
// hash equal however they were constructed.
func TestPointKeySemanticEquality(t *testing.T) {
	base, err := PointKey(machine.PentiumPro(4), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}

	// Preset-built vs literal-built: the helper and a hand-spelled copy
	// of the same machine are the same machine.
	literal := machine.PentiumPro(4) // fields copied — a struct literal in effect
	lk, err := PointKey(literal, defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if lk != base {
		t.Error("copied config hashes differently")
	}

	// Engine choice is not observable: both engines produce bit-identical
	// results, so a cached result from either must satisfy both.
	refEng, err := PointKey(machine.PentiumPro(4).WithEngine(machine.EngineReference), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if refEng != base {
		t.Error("reference-engine config hashes differently from fast-engine config")
	}

	// Default-filled vs explicit: an Options with ChunkBytes left 0 (the
	// builder default) equals one spelling DefaultChunkBytes out.
	implicit := defaultOpts(t)
	implicit.ChunkBytes = 0
	ik, err := PointKey(machine.PentiumPro(4), implicit, "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	explicit := defaultOpts(t)
	explicit.ChunkBytes = cascade.DefaultChunkBytes
	ek, err := PointKey(machine.PentiumPro(4), explicit, "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if ik != ek || ik != base {
		t.Error("default-filled and explicit ChunkBytes hash differently")
	}
}

// TestPointKeyObservableChanges pins the converse invariant: any
// observable field change must produce a different key, else the cache
// serves wrong results.
func TestPointKeyObservableChanges(t *testing.T) {
	cfg := machine.PentiumPro(4)
	opts := defaultOpts(t)
	base, err := PointKey(cfg, opts, "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"base": base}
	check := func(label string, cfg machine.Config, opts cascade.Options, workload string) {
		t.Helper()
		k, err := PointKey(cfg, opts, workload)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for prev, pk := range seen {
			if pk == k {
				t.Errorf("%s collides with %s", label, prev)
			}
		}
		seen[label] = k
	}

	check("procs", cfg.WithProcs(3), opts, "parmvr")
	check("other machine", machine.R10000(8), opts, "parmvr")
	smallL2 := cfg
	smallL2.L2.Size /= 2
	check("L2 size", smallL2, opts, "parmvr")
	slowMem := cfg
	slowMem.MemLatency++
	check("memory latency", slowMem, opts, "parmvr")
	noTLB := cfg
	noTLB.TLB.Entries = 0
	check("TLB", noTLB, opts, "parmvr")

	chunk := opts
	chunk.ChunkBytes = 32 * 1024
	check("chunk size", cfg, chunk, "parmvr")
	noJump := opts
	noJump.JumpOut = false
	check("jump-out", cfg, noJump, "parmvr")
	helper := opts
	helper.Helper = cascade.HelperRestructure
	check("helper", cfg, helper, "parmvr")

	check("workload", cfg, opts, "parmvr@scale=0.5")
}

// Golden keys, generated once from the current canonical serialization.
// If one of these fails without an intentional semantic change, the key
// derivation drifted — previously cached results would silently stop
// matching (or worse, a lax canonicalization change could alias distinct
// configs). On an intentional change, bump keySchema and regenerate.
const (
	goldenPointKey = "c5ca8abeb40c3f7df796fd08baecf45bacc5bad0aa8adefe520c1b73d3fbb5cd"
	goldenJobKey   = "35ac2887283f1fa8d217bac7edfe08c01adf0718c9a6707107ddbdd5bdb4ec9d"
)

func TestGoldenKeys(t *testing.T) {
	pk, err := PointKey(machine.PentiumPro(4), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if pk != goldenPointKey {
		t.Errorf("PointKey drifted:\n got %s\nwant %s\n(bump keySchema if this change is intentional)", pk, goldenPointKey)
	}
	jk, err := JobKey("fig2", JobParams{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jk != goldenJobKey {
		t.Errorf("JobKey drifted:\n got %s\nwant %s\n(bump keySchema if this change is intentional)", jk, goldenJobKey)
	}
}

// TestParallelKnobLeavesKeysAlone pins that the host-parallel knob, a
// pure speed knob, moves no key: a point's key from its machine
// configuration or from its spec, a job's key and a warm prefix's key
// are the same with the knob on and off.
func TestParallelKnobLeavesKeysAlone(t *testing.T) {
	type keys struct{ point, spec, job, prefix string }
	keysWith := func(mode machine.Parallel) keys {
		t.Helper()
		experiments.SetParallel(mode == machine.ParallelOn)
		defer experiments.SetParallel(false)
		var k keys
		var err error
		cfg := machine.PentiumPro(4).WithParallel(mode)
		if k.point, err = PointKey(cfg, defaultOpts(t), "parmvr"); err != nil {
			t.Fatal(err)
		}
		specs, _ := experiments.Decompose("fig6", JobParams{Scale: 0.05}.WithDefaults().RunConfig())
		if k.spec, err = canon.PointKey(specs[0]); err != nil {
			t.Fatal(err)
		}
		if k.job, err = JobKey("fig6", JobParams{Scale: 0.05}); err != nil {
			t.Fatal(err)
		}
		if k.prefix, err = experiments.PrefixKey(cfg, wave5.DefaultParams().Scaled(0.05), 2); err != nil {
			t.Fatal(err)
		}
		return k
	}
	if on, off := keysWith(machine.ParallelOn), keysWith(machine.ParallelOff); on != off {
		t.Errorf("keys differ with the Parallel knob:\non:  %+v\noff: %+v", on, off)
	}
	if k, err := PointKey(machine.PentiumPro(4), defaultOpts(t), "parmvr"); err != nil || k != goldenPointKey {
		t.Errorf("default point key %s (%v), want the golden %s", k, err, goldenPointKey)
	}
}

// TestJobKeyParamResolution pins that job keys are derived from
// fully-resolved parameters: omitting a field and spelling its default
// out address the same cache entry, while changing any parameter or the
// experiment name moves to a different one.
func TestJobKeyParamResolution(t *testing.T) {
	implicit, err := JobKey("fig2", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := JobKey("fig2", DefaultJobParams())
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Error("zero params and explicit defaults hash differently")
	}
	scaled, err := JobKey("fig2", JobParams{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if scaled == implicit {
		t.Error("scale change did not change the job key")
	}
	otherExp, err := JobKey("fig6", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	if otherExp == implicit {
		t.Error("experiment name does not contribute to the job key")
	}
}

func TestJobParamsValidate(t *testing.T) {
	if err := DefaultJobParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	for _, p := range []JobParams{
		{Scale: -1, ChunkKB: 64, N: 1024},
		{Scale: 1, ChunkKB: -1, N: 1024},
		{Scale: 1, ChunkKB: 64, N: -5},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid params", p)
		}
	}
}

// TestJobKeyIgnoresTimeout pins that the execution deadline is not part
// of a job's identity: the deadline bounds how long a run may take, not
// what it computes, so jobs differing only in TimeoutMS share a cache
// entry and coalesce.
func TestJobKeyIgnoresTimeout(t *testing.T) {
	plain, err := JobKey("fig2", JobParams{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	timed, err := JobKey("fig2", JobParams{Scale: 0.5, TimeoutMS: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if plain != timed {
		t.Errorf("TimeoutMS changed the job key: %s vs %s", plain, timed)
	}
	if err := (JobParams{Scale: 1, ChunkKB: 64, N: 1024, TimeoutMS: -1}).Validate(); err == nil {
		t.Error("Validate accepted a negative TimeoutMS")
	}
}

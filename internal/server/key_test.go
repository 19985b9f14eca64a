package server

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cascade"
	"repro/internal/machine"
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

// canonicalKey hashes the canonical bytes of a machine configuration and
// cascade options, the parts of every key that describe the simulated
// machine and options (JobKey folds each preset's and the default
// options' bytes; prefix keys fold the machine's).
func canonicalKey(t *testing.T, cfg machine.Config, opts cascade.Options) string {
	t.Helper()
	cb, err := cfg.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	ob, err := opts.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(cb)
	h.Write([]byte{0})
	h.Write(ob)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPointKeySemanticEquality pins the cache-key invariant that makes
// memoization sound: configurations with identical observable semantics
// have identical canonical bytes however they were constructed.
func TestPointKeySemanticEquality(t *testing.T) {
	base := canonicalKey(t, machine.PentiumPro(4), defaultOpts(t))

	// Preset-built vs literal-built: the helper and a hand-spelled copy
	// of the same machine are the same machine.
	literal := machine.PentiumPro(4) // fields copied — a struct literal in effect
	if canonicalKey(t, literal, defaultOpts(t)) != base {
		t.Error("copied config hashes differently")
	}

	// Engine choice is not observable: both engines produce bit-identical
	// results, so a cached result from either must satisfy both.
	if canonicalKey(t, machine.PentiumPro(4).WithEngine(machine.EngineReference), defaultOpts(t)) != base {
		t.Error("reference-engine config hashes differently from fast-engine config")
	}

	// Default-filled vs explicit: an Options with ChunkBytes left 0 (the
	// builder default) equals one spelling DefaultChunkBytes out.
	implicit := defaultOpts(t)
	implicit.ChunkBytes = 0
	explicit := defaultOpts(t)
	explicit.ChunkBytes = cascade.DefaultChunkBytes
	ik, ek := canonicalKey(t, machine.PentiumPro(4), implicit), canonicalKey(t, machine.PentiumPro(4), explicit)
	if ik != ek || ik != base {
		t.Error("default-filled and explicit ChunkBytes hash differently")
	}
}

// TestPointKeyObservableChanges pins the converse invariant: any
// observable field change must change the canonical bytes, else the
// cache serves wrong results.
func TestPointKeyObservableChanges(t *testing.T) {
	cfg := machine.PentiumPro(4)
	opts := defaultOpts(t)
	seen := map[string]string{"base": canonicalKey(t, cfg, opts)}
	check := func(label string, cfg machine.Config, opts cascade.Options) {
		t.Helper()
		k := canonicalKey(t, cfg, opts)
		for prev, pk := range seen {
			if pk == k {
				t.Errorf("%s collides with %s", label, prev)
			}
		}
		seen[label] = k
	}

	check("procs", cfg.WithProcs(3), opts)
	check("other machine", machine.R10000(8), opts)
	smallL2 := cfg
	smallL2.L2.Size /= 2
	check("L2 size", smallL2, opts)
	slowMem := cfg
	slowMem.MemLatency++
	check("memory latency", slowMem, opts)
	noTLB := cfg
	noTLB.TLB.Entries = 0
	check("TLB", noTLB, opts)

	chunk := opts
	chunk.ChunkBytes = 32 * 1024
	check("chunk size", cfg, chunk)
	noJump := opts
	noJump.JumpOut = false
	check("jump-out", cfg, noJump)
	helper := opts
	helper.Helper = cascade.HelperRestructure
	check("helper", cfg, helper)
}

// goldenJobKey was generated once from the current canonical
// serialization. If it fails without an intentional semantic change, the
// key derivation drifted — previously cached results would silently stop
// matching (or worse, a lax canonicalization change could alias distinct
// configs). On an intentional change, bump keySchema and regenerate.
const goldenJobKey = "35ac2887283f1fa8d217bac7edfe08c01adf0718c9a6707107ddbdd5bdb4ec9d"

func TestGoldenKeys(t *testing.T) {
	jk, err := JobKey("fig2", JobParams{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jk != goldenJobKey {
		t.Errorf("JobKey drifted:\n got %s\nwant %s\n(bump keySchema if this change is intentional)", jk, goldenJobKey)
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

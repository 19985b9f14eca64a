package cascade

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/loopir"
	"repro/internal/loopspec"
	"repro/internal/machine"
	"repro/internal/memsim"
)

// fuzzMaxLen bounds every array length and the iteration count of a
// fuzzed spec, so one run of both engines stays in milliseconds.
const fuzzMaxLen = 4096

// FuzzLoopSpecEngines feeds arbitrary loop specs through loopspec.Parse
// and Build and runs each on a small PentiumPro twice, once per engine,
// in a mode picked by the second argument (sequential, or cascaded with
// either helper). Specs that fail to parse or build, or that are too
// large, are skipped; a panic, or any difference between the engines in
// cycles, phase breakdown, L1/L2/TLB statistics, metric snapshots or
// array values, is a failure. The seeds are examples/spec/scatter.json
// (as shipped, and shrunk below the size bound) plus affine, strided,
// stencil and gather shapes.
func FuzzLoopSpecEngines(f *testing.F) {
	scatter, err := os.ReadFile("../../examples/spec/scatter.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		scatter,
		bytes.ReplaceAll(scatter, []byte("1048576"), []byte("2048")),
		[]byte(`{"name": "triad", "iters": 1024,
			"arrays": [{"name": "a", "len": 1024}, {"name": "b", "len": 1024, "init": "i"}, {"name": "c", "len": 1024, "init": "2*i"}],
			"reads": [{"array": "b", "index": {}}, {"array": "c", "index": {}}],
			"writes": [{"array": "a", "index": {}}],
			"final": {"exprs": ["r0 + 3*r1"], "cycles": 2}}`),
		[]byte(`{"name": "strided", "iters": 500,
			"arrays": [{"name": "x", "len": 2000, "elem": 4, "init": "i % 11"}, {"name": "y", "len": 1500, "align": 64}],
			"reads": [{"array": "x", "index": {"scale": 4, "offset": 3}}, {"array": "y", "index": {"scale": 3}, "readwrite": true}],
			"writes": [{"array": "y", "index": {"scale": 3}}],
			"pre": {"exprs": ["r0 * 0.5"], "cycles": 1},
			"final": {"exprs": ["p0 + rw0"], "cycles": 1}}`),
		[]byte(`{"name": "reverse", "iters": 800,
			"arrays": [{"name": "u", "len": 800, "init": "n - i"}, {"name": "v", "len": 800, "congruence": {"offset": 0, "modulus": 8192}}],
			"reads": [{"array": "u", "index": {"scale": -1, "offset": 799}}],
			"writes": [{"array": "v", "index": {}}],
			"final": {"exprs": ["r0 - i"]}}`),
		[]byte(`{"name": "stencil", "iters": 1000,
			"arrays": [{"name": "p", "len": 1002, "init": "i * i % 17"}, {"name": "q", "len": 1000}],
			"reads": [{"array": "p", "index": {}}, {"array": "p", "index": {"offset": 1}}, {"array": "p", "index": {"offset": 2}}],
			"writes": [{"array": "q", "index": {}}],
			"pre": {"exprs": ["r0 + r1 + r2"], "cycles": 3},
			"final": {"exprs": ["p0 / 3"], "cycles": 1}}`),
		[]byte(`{"name": "gather", "iters": 1024, "seed": 3,
			"arrays": [{"name": "t", "len": 1024, "elem": 4, "init": "randint(512)"}, {"name": "g", "len": 512, "init": "i"}, {"name": "o", "len": 1024}],
			"reads": [{"array": "g", "index": {"table": "t"}}],
			"writes": [{"array": "o", "index": {}}],
			"final": {"exprs": ["2 * r0"], "cycles": 1},
			"no_compiler_prefetch": true}`),
	}
	for _, s := range seeds {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(s, mode)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		spec, err := loopspec.Parse(data)
		if err != nil || spec.Iters > fuzzMaxLen {
			return
		}
		for _, a := range spec.Arrays {
			if a.Len > fuzzMaxLen {
				return
			}
		}
		sFast, lFast, err := loopspec.Build(spec)
		if err != nil {
			return
		}
		sRef, lRef, err := loopspec.Build(spec)
		if err != nil {
			t.Fatalf("second build of one spec failed: %v", err)
		}

		run := func(engine machine.Engine, space *memsim.Space, l *loopir.Loop) (Result, *machine.Machine, error) {
			m := machine.MustNew(machine.PentiumPro(2).WithEngine(engine))
			if mode%3 == 0 {
				return RunSequential(m, l, true), m, nil
			}
			opts := DefaultOptions(Helper(mode%3-1), space)
			opts.ChunkBytes = 1 << (10 + mode/3%4)
			res, err := Run(m, l, opts)
			return res, m, err
		}
		fast, mFast, errFast := run(machine.EngineFast, sFast, lFast)
		ref, mRef, errRef := run(machine.EngineReference, sRef, lRef)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("engines disagree on failure: fast %v, reference %v", errFast, errRef)
		}
		if errFast != nil {
			return
		}
		resultDiff(t, spec.Name, fast, ref)
		if mFast.TLBStats() != mRef.TLBStats() {
			t.Errorf("TLB stats diverge:\nfast      %+v\nreference %+v", mFast.TLBStats(), mRef.TLBStats())
		}
		if !reflect.DeepEqual(mFast.Metrics().Snapshot(), mRef.Metrics().Snapshot()) {
			t.Errorf("machine metric snapshots diverge")
		}
		aFast, aRef := sFast.Arrays(), sRef.Arrays()
		if len(aFast) != len(aRef) {
			t.Fatalf("array counts diverge: fast %d, reference %d", len(aFast), len(aRef))
		}
		for k := range aFast {
			vf, vr := aFast[k].Snapshot(), aRef[k].Snapshot()
			for i := range vf {
				if math.Float64bits(vf[i]) != math.Float64bits(vr[i]) {
					t.Fatalf("array %s diverges at element %d: fast %v, reference %v", aFast[k].Name(), i, vf[i], vr[i])
				}
			}
		}
	})
}

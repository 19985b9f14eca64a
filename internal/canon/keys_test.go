package canon_test

import (
	"encoding/json"
	"testing"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/wave5"
)

// fixedSpecs are wire-stable point specs whose keys are pinned below.
// They are constructed through the real decomposition so the goldens
// break when either the spec shape or the plan construction changes.
func fixedSpecs(t *testing.T) []experiments.PointSpec {
	t.Helper()
	rc := experiments.DefaultRunConfig()
	rc.Scale = 0.25
	specs, ok := experiments.Decompose("fig6", rc)
	if !ok || len(specs) < 4 {
		t.Fatalf("fig6 decomposition unavailable (%d specs)", len(specs))
	}
	return []experiments.PointSpec{specs[0], specs[2], specs[3], specs[len(specs)-1]}
}

// TestPointKeyGoldens pins the per-point key derivation. An intentional
// change to the spec fields, the canonical encoding, or PointSchema must
// update these hex strings in the same commit — an accidental change is
// a silent fleet-wide cache invalidation (or worse, stale hits), which
// is exactly what this test exists to catch.
func TestPointKeyGoldens(t *testing.T) {
	want := []string{
		"ffbb07c3f42a80d310b6d0374de5ca23676510900568208ef5c5f22fe1f692e1",
		"5c621468b8bf7abf48e760d711771038d8608f3904cd9a2dd305bcb8cad4eeaf",
		"8643578aea9211c872076624acc4e05f7259fc1d377d02c4174b80b9780bfe8e",
		"2f1e9d412d3b6626f75a5546cb35b5869b9072466361a2edb8d285b8091f458f",
	}
	specs := fixedSpecs(t)
	for i, spec := range specs {
		got, err := canon.PointKey(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("point key %d drifted:\n got %s\nwant %s\nspec %+v", i, got, want[i], spec)
		}
	}
}

// TestPointKeyCoordinatorWorkerIdentity proves the fabric's cross-node
// caching premise: a key derived from the coordinator's typed PointSpec
// equals the key derived from the worker's view of the same spec — the
// generic map a JSON decode of the wire body produces. If these ever
// diverged, a worker would recompute (or mis-file) every point the
// coordinator shipped it.
func TestPointKeyCoordinatorWorkerIdentity(t *testing.T) {
	for i, spec := range fixedSpecs(t) {
		coord, err := canon.PointKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		// The worker's view: the spec as it arrives off the wire, decoded
		// twice — into the typed struct the worker actually uses, and into
		// an untyped map (field order gone, ints now float64s).
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var typed experiments.PointSpec
		if err := json.Unmarshal(wire, &typed); err != nil {
			t.Fatal(err)
		}
		workerTyped, err := canon.PointKey(typed)
		if err != nil {
			t.Fatal(err)
		}
		var generic map[string]interface{}
		if err := json.Unmarshal(wire, &generic); err != nil {
			t.Fatal(err)
		}
		workerGeneric, err := canon.PointKey(generic)
		if err != nil {
			t.Fatal(err)
		}
		if coord != workerTyped || coord != workerGeneric {
			t.Errorf("spec %d: key differs by derivation site:\ncoordinator %s\nworker/typed %s\nworker/map   %s",
				i, coord, workerTyped, workerGeneric)
		}
	}
}

// TestPointKeySensitivity pins that every observable spec field moves
// the key: two specs differing in exactly one field must never collide.
func TestPointKeySensitivity(t *testing.T) {
	base := experiments.PointSpec{
		Experiment: "fig6", Index: 3, Machine: "R10000", Procs: 4,
		Strategy: "prefetched", ChunkKB: 64, Scale: 1.0,
	}
	baseKey, err := canon.PointKey(base)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]experiments.PointSpec{
		"experiment": {Experiment: "fig2", Index: 3, Machine: "R10000", Procs: 4, Strategy: "prefetched", ChunkKB: 64, Scale: 1.0},
		"machine":    {Experiment: "fig6", Index: 3, Machine: "PentiumPro", Procs: 4, Strategy: "prefetched", ChunkKB: 64, Scale: 1.0},
		"procs":      {Experiment: "fig6", Index: 3, Machine: "R10000", Procs: 2, Strategy: "prefetched", ChunkKB: 64, Scale: 1.0},
		"strategy":   {Experiment: "fig6", Index: 3, Machine: "R10000", Procs: 4, Strategy: "restructured", ChunkKB: 64, Scale: 1.0},
		"chunk_kb":   {Experiment: "fig6", Index: 3, Machine: "R10000", Procs: 4, Strategy: "prefetched", ChunkKB: 128, Scale: 1.0},
		"scale":      {Experiment: "fig6", Index: 3, Machine: "R10000", Procs: 4, Strategy: "prefetched", ChunkKB: 64, Scale: 0.5},
	}
	for field, spec := range mutations {
		k, err := canon.PointKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if k == baseKey {
			t.Errorf("changing %s did not change the point key", field)
		}
	}
	// Schema separation: the same value under a different schema gets a
	// different key, so point results can never alias job results.
	other, err := canon.Key("some-other-schema/v1", base)
	if err != nil {
		t.Fatal(err)
	}
	if other == baseKey {
		t.Error("schema tag does not separate key spaces")
	}
}

// TestPrefixKeyGoldens pins the warm-prefix key derivation through the
// real resolver (machine canonical bytes + dataset params + warm-up
// schedule under PrefixSchema). Workers share prefix captures across
// jobs keyed by these strings — accidental drift here is a silent
// warm-cache invalidation fleet-wide, or stale prefix hits if a
// meaningful field stops being hashed.
func TestPrefixKeyGoldens(t *testing.T) {
	p := wave5.DefaultParams().Scaled(0.25)
	cases := []struct {
		cfg    machine.Config
		warmup int
		want   string
	}{
		{machine.R10000(8), 2, "a757a6ca54f61120c5dc55aeecf4049233bdf2b41b7997e019c556a526bfe080"},
		{machine.R10000(8), 0, "468bfc614baa927823d969471e18017e4ed8c847d55164436400c15ff263e0dd"},
		{machine.PentiumPro(4), 2, "72932d3cf80a145f218ba3301bd0a10e7ebad952a27ad7156d179a9f16210360"},
		{machine.PentiumPro(4), 0, "f2380f038737485fd600dbe45acf003556b7869876db5bb03e9c0cbb69327c46"},
	}
	seen := map[string]string{}
	for _, tc := range cases {
		got, err := experiments.PrefixKey(tc.cfg, p, tc.warmup)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("prefix key (%s warm=%d) drifted:\n got %s\nwant %s", tc.cfg.Name, tc.warmup, got, tc.want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("prefix key collision: %s and %s/warm=%d", prev, tc.cfg.Name, tc.warmup)
		}
		seen[got] = tc.cfg.Name
	}
	// Schema separation: a prefix key must never alias a point key even if
	// a descriptor and a spec were ever to hash the same bytes.
	pk, err := canon.PrefixKey(map[string]interface{}{"config": "x"})
	if err != nil {
		t.Fatal(err)
	}
	ptk, err := canon.PointKey(map[string]interface{}{"config": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if pk == ptk {
		t.Error("prefix and point key spaces alias")
	}
}

// TestReproKeyGoldens pins the repro-bundle key derivation the same way
// TestPointKeyGoldens pins point keys: an intentional change to
// ReproSchema or the canonical encoding must update these hex strings
// in the same commit. The inputs are written as the generic maps a JSON
// round-trip of server.reproInputs produces — by the canonical-encoding
// guarantee these hash identically to the typed struct, so the goldens
// also pin that a bundle re-keyed after `curl ... > bundle.json` still
// matches the key the server stamped.
func TestReproKeyGoldens(t *testing.T) {
	cases := []struct {
		name string
		in   map[string]interface{}
		want string
	}{
		{
			name: "whole experiment with faults",
			in: map[string]interface{}{
				"experiment": "fig2",
				"params":     map[string]interface{}{"scale": 0.25},
				"fault_spec": "exp.panic:n=1",
				"fault_seed": 1,
			},
			want: "6ec7d53965363a4775d1b60b44a3f4450fff2795e46fce9504d96760eb82aace",
		},
		{
			name: "failing point, no faults",
			in: map[string]interface{}{
				"experiment": "fig6",
				"params":     map[string]interface{}{"scale": 1.0},
				"point": map[string]interface{}{
					"experiment": "fig6", "index": 3, "machine": "R10000",
					"procs": 4, "strategy": "prefetched", "chunk_kb": 64, "scale": 1.0,
				},
			},
			want: "0c756164ccc12522e9629c9abf641208be6a693b52757e0ad417fcda9ead66ee",
		},
	}
	for _, tc := range cases {
		got, err := canon.ReproKey(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("repro key (%s) drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
	// Every replay input moves the key: same inputs under a different
	// fault seed (or with the seed absent) must not collide — a stale
	// bundle replaying under the wrong seed would chase a different bug.
	base := cases[0].in
	reseeded := map[string]interface{}{
		"experiment": "fig2",
		"params":     map[string]interface{}{"scale": 0.25},
		"fault_spec": "exp.panic:n=1",
		"fault_seed": 2,
	}
	k1, err := canon.ReproKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := canon.ReproKey(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("fault seed does not move the repro key")
	}
	// Schema separation from point keys: identical bytes under the two
	// schemas must never alias.
	if pk, _ := canon.PointKey(base); pk == k1 {
		t.Error("repro and point key spaces alias")
	}
}

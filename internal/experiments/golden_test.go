package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/machine"
)

// testdata/golden.json maps "<experiment> scale=<s>" to the SHA-256 of the
// experiment's result rendered as `cascade-sim -json` prints it (indented,
// trailing newline), at the default chunk budget. The hashes were recorded
// from the serial drivers the decompositions replaced; every path that
// produces these results must keep producing these bytes.
var goldenScales = []float64{0.01, 0.02}

func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkGolden compares r's rendering with the golden hash of key.
func checkGolden(t *testing.T, golden map[string]string, key, path string, r Renderable) {
	t.Helper()
	want, ok := golden[key]
	if !ok {
		t.Fatalf("%s: no golden hash", key)
	}
	sum := sha256.Sum256(renderIndented(t, r))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s via %s: hash %s, golden %s", key, path, got[:12], want[:12])
	}
}

// TestGoldenDecomposed pins every decomposed experiment's bytes through
// every local path: RunDecomposed (with point progress reported to the
// end), the registry's run function (what cascade-sim and the server's
// whole-job path call), and the warm path over a fresh PrefixCache with
// the fabric's JSON round-trip on every spec and result (points without
// a warm path take the cold one, as on a worker).
func TestGoldenDecomposed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweeps")
	}
	golden := loadGolden(t)
	for _, name := range DecomposableExperiments() {
		exp, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, scale := range goldenScales {
			key := fmt.Sprintf("%s scale=%g", name, scale)
			rc := DefaultRunConfig()
			rc.Scale = scale

			var mu sync.Mutex
			var lastDone, lastTotal int
			ctx := WithPointProgress(context.Background(), func(done, total int) {
				mu.Lock()
				lastDone, lastTotal = done, total
				mu.Unlock()
			})
			local, ok, err := RunDecomposed(ctx, name, rc)
			if !ok || err != nil {
				t.Fatalf("%s: RunDecomposed = ok=%v err=%v", key, ok, err)
			}
			checkGolden(t, golden, key, "RunDecomposed", local)
			if specs, _ := Decompose(name, rc); lastTotal != len(specs) || lastDone != lastTotal {
				t.Errorf("%s: point progress ended at %d/%d, want %d/%d", key, lastDone, lastTotal, len(specs), len(specs))
			}

			reg, err := exp.Run(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden, key, "registry", reg)

			warm := warmOverWire(t, context.Background(), NewPrefixCache(0), name, rc)
			checkGolden(t, golden, key, "PrefixCache over the wire", warm)
		}
	}
}

// TestGoldenReferenceEngine pins fig2 and fig6 under the reference
// interpreter: every point simulated by RunPARMVR on the reference
// engine, each loop's prior parallel section simulated rather than
// loaded, merged by the decomposition's own Merge. It is the oracle the
// fast engine, the packed start states and the sweep driver all answer
// to.
func TestGoldenReferenceEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweeps under the reference interpreter")
	}
	golden := loadGolden(t)
	for _, name := range []string{"fig2", "fig6"} {
		for _, scale := range goldenScales {
			rc := DefaultRunConfig()
			rc.Scale = scale
			merged := coldPointSweep(t, name, rc, machine.EngineReference)
			checkGolden(t, golden, fmt.Sprintf("%s scale=%g", name, scale), "reference engine", merged)
		}
	}
}

// coldPointSweep is a sweep driver independent of prefixes and packed
// captures: every point of the decomposition runs RunPARMVR on engine,
// each loop's prior parallel section simulated, and the decomposition's
// own Merge folds the points together.
func coldPointSweep(t *testing.T, name string, rc RunConfig, engine machine.Engine) Renderable {
	t.Helper()
	specs, ok := Decompose(name, rc)
	if !ok {
		t.Fatalf("experiment %q not decomposable", name)
	}
	results := make([]PointResult, len(specs))
	if err := parallelFor(context.Background(), len(specs), func(i int) error {
		ps := specs[i]
		cfg, err := machineByName(ps.Machine)
		if err != nil {
			return err
		}
		strat, err := ParseStrategy(ps.Strategy)
		if err != nil {
			return err
		}
		rr, err := RunPARMVR(cfg.WithProcs(ps.Procs).WithEngine(engine),
			rc.Params(), strat, ps.ChunkKB*1024)
		if err != nil {
			return err
		}
		results[i] = parmvrResult(ps.Index, rr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	merged, err := MergePoints(name, rc, results)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload once at smoke size — one repetition, the
// smallest scale, ten mixed jobs — with the traced replay, against real
// binaries built into a temp dir, and checks the report against
// BENCHMARK.json: every metric present with its unit, nothing failed,
// and fig6 byte-identical through the CLI and the fleet.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and boots daemons")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bins, err := buildBinaries(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bench.Workloads), len(workloads))
	}

	start := time.Now()
	h := &harness{bins: bins, golden: g, hc: newHTTPClient(), dir: t.TempDir()}
	fig6 := newJob("fig6", smokeScale).key()
	hashes := map[string]string{}
	for _, bw := range bench.Workloads {
		w, ok := lookupWorkload(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the harness", bw.Name)
		}
		rp, err := h.runWorkload(w, options{seed: 1, traced: true, smoke: true}, filepath.Join(h.dir, "spans.json"), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(rp.fails) > 0 || rp.ops == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, len(rp.fails), rp.ops, rp.fails)
		}
		for _, set := range []struct {
			want []spec
			got  result
		}{{bench.EndToEnd, rp.result(false)}, {bench.PerLayer, rp.result(true)}} {
			if len(set.got.Metrics) != len(set.want) {
				t.Errorf("%s: reports %d metrics, BENCHMARK.json names %d", w.name, len(set.got.Metrics), len(set.want))
			}
			for _, m := range set.want {
				if got, ok := set.got.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s: got %+v, want unit %q", w.name, m.Name, got, m.Unit)
				}
			}
		}
		if hs, ok := rp.hashes[fig6]; ok {
			hashes[w.name] = hs
		}
	}
	if hashes["figs-cli"] == "" || hashes["figs-cli"] != hashes["fig6-fleet"] {
		t.Errorf("fig6 bytes differ between the CLI and the fleet: %v", hashes)
	}
	t.Logf("smoke run took %v", time.Since(start))
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/wave5"
)

// TestMain lets a test run the command itself: with CASCADE_SIM_AS_MAIN
// set, the test binary runs main on its arguments instead of the tests,
// so flag handling and exit status are tested as a user meets them.
func TestMain(m *testing.M) {
	if os.Getenv("CASCADE_SIM_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its stderr and exit
// status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CASCADE_SIM_AS_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatalf("running %v: %v", args, err)
	return "", 0
}

// smallScale keeps CLI tests fast while exercising every experiment path.
const smallScale = 0.02

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "table1", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "PentiumPro", "R10000", "100-200"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunTable1CSV(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "table1", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "csv", quiet: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Processor,Memory Level") {
		t.Errorf("CSV header missing:\n%s", b.String())
	}
}

func TestRunFig2(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "fig2", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 2") {
		t.Error("missing Figure 2 header")
	}
}

func TestRunFigBreakdowns(t *testing.T) {
	for _, exp := range []string{"fig3", "fig4", "fig5"} {
		var b strings.Builder
		if err := run(context.Background(), &b, cliOptions{exp: exp, scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(b.String(), "gather_ex") {
			t.Errorf("%s: missing loop rows", exp)
		}
	}
}

func TestRunFig7(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "fig7", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 7") {
		t.Error("missing Figure 7 header")
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: the ablation matrix runs many full simulations")
	}
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "ablations", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"jump-out", "precomputation", "chunk sizing", "MIPSpro", "TLB"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations output missing %q", want)
		}
	}
}

func TestRunConflicts(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "conflicts", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"miss classification", "Conflict", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("conflicts output missing %q", want)
		}
	}
}

func TestRunCharts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: chart mode re-runs three figure sweeps")
	}
	for _, exp := range []string{"fig2", "fig3", "fig7"} {
		var b strings.Builder
		if err := run(context.Background(), &b, cliOptions{exp: exp, scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "chart", quiet: true}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		out := b.String()
		if !strings.Contains(out, "Figure") {
			t.Errorf("%s: missing figure title", exp)
		}
		if !strings.Contains(out, "#") && !strings.Contains(out, "* = ") {
			t.Errorf("%s: no chart marks in output:\n%s", exp, out)
		}
	}
}

func TestOutputMode(t *testing.T) {
	if outputMode(false, false, false) != "table" || outputMode(true, false, false) != "csv" || outputMode(false, true, false) != "chart" || outputMode(true, true, true) != "json" {
		t.Error("outputMode mapping wrong")
	}
}

func TestRunAmdahl(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: the Amdahl study sweeps serial fractions end to end")
	}
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "amdahl", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Application speedup") {
		t.Error("missing amdahl output")
	}
}

func TestRunJSON(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "fig2", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "json", quiet: true}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Points []struct {
			Machine  string
			Strategy string
			Procs    int
			Speedup  float64
		}
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.Points) == 0 {
		t.Fatal("no points in JSON")
	}
	if decoded.Points[0].Strategy != "Prefetched" && decoded.Points[0].Strategy != "Restructured" {
		t.Errorf("strategy label = %q", decoded.Points[0].Strategy)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "nope", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunMetricsJSON pins the acceptance path: `cascade-sim --metrics
// json` (no explicit -exp) runs quickstart and emits per-processor
// helper/exec/transfer cycle breakdowns in the snapshots.
func TestRunMetricsJSON(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "all", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", metrics: "json", quiet: true}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Machine string
		Procs   int
		Rows    []struct {
			Strategy string
			Cycles   int64
			Metrics  map[string]int64
		}
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(decoded.Rows))
	}
	for _, row := range decoded.Rows[1:] {
		for _, key := range []string{"cascade.p0.helper", "cascade.p0.exec", "cascade.total.transfer", "p0.l2.misses"} {
			if _, ok := row.Metrics[key]; !ok {
				t.Errorf("%s: snapshot missing %q", row.Strategy, key)
			}
		}
	}
}

func TestRunMetricsTable(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "all", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", metrics: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Quickstart", "per-processor cycles and misses", "helper", "transfer"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table output missing %q", want)
		}
	}
}

func TestRunBadMetricsMode(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "all", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", metrics: "yaml", quiet: true}); err == nil {
		t.Error("bad -metrics mode accepted")
	}
}

// TestRunQuickstartExplicit runs quickstart as a named experiment with
// the ordinary table renderer.
func TestRunQuickstartExplicit(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "quickstart", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "scatter-add") {
		t.Error("missing quickstart table")
	}
}

// TestRunList pins -exp list: every registered experiment is enumerated.
func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{exp: "list", mode: "table", quiet: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"quickstart", "table1", "fig2", "fig6", "fig7", "conflicts", "amdahl", "gallery", "ablations", "defaults:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-exp list missing %q:\n%s", want, out)
		}
	}
}

// TestRunCacheReuse pins the -cache flag: the first run fills the
// content-addressed store, a repeat run with the same fully-resolved
// configuration is answered from it byte-for-byte (proven by replacing
// the stored entry with a validly-checksummed sentinel), a corrupted
// entry is quarantined and transparently recomputed, and a different
// configuration misses.
func TestRunCacheReuse(t *testing.T) {
	dir := t.TempDir()
	opts := cliOptions{exp: "quickstart", scale: smallScale, chunkBytes: 64 * 1024,
		n: 1 << 14, mode: "json", cacheDir: dir, quiet: true}

	var first strings.Builder
	if err := run(context.Background(), &first, opts); err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if err := run(context.Background(), &second, opts); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("cached rerun output differs from the original run")
	}

	// Replace the single stored entry with a sentinel, written through
	// the cache so its checksum is valid; a third run must echo the
	// sentinel — proof the output came from the cache, not a fresh
	// simulation.
	entries := cacheFiles(t, dir)
	if len(entries) != 1 {
		t.Fatalf("cache holds %d files, want 1", len(entries))
	}
	jobKey, err := server.JobKey("quickstart", server.JobParams{
		Scale: opts.scale, ChunkKB: opts.chunkBytes / 1024, N: opts.n,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := server.RenderKey(jobKey, "json")
	if err := os.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}
	tamper, err := server.NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tamper.Put(key, []byte("TAMPERED")); err != nil {
		t.Fatal(err)
	}
	var third strings.Builder
	if err := run(context.Background(), &third, opts); err != nil {
		t.Fatal(err)
	}
	if third.String() != "TAMPERED" {
		t.Errorf("third run did not come from the cache: %q", third.String())
	}

	// Corrupt the raw entry bytes: the next run must quarantine it,
	// recompute, and produce the original (uncached) output again —
	// tampered bytes are never served.
	if err := os.WriteFile(entries[0], []byte("garbage, not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	var healed strings.Builder
	if err := run(context.Background(), &healed, opts); err != nil {
		t.Fatal(err)
	}
	if healed.String() != first.String() {
		t.Error("corrupt entry was not recomputed to the original bytes")
	}
	if _, err := os.Stat(entries[0] + ".corrupt"); err != nil {
		t.Errorf("corrupt entry was not quarantined: %v", err)
	}
	if _, err := os.Stat(entries[0]); err != nil {
		t.Errorf("recomputed entry was not rewritten: %v", err)
	}

	// A different configuration must not hit the tampered entry.
	miss := opts
	miss.scale = smallScale * 2
	var fresh strings.Builder
	if err := run(context.Background(), &fresh, miss); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fresh.String(), "TAMPERED") {
		t.Error("different scale was served the old cache entry")
	}
}

// cacheFiles lists the regular files under a cache directory, skipping
// quarantined entries.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	var entries []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasSuffix(path, ".corrupt") {
			entries = append(entries, path)
		}
		return nil
	})
	return entries
}

// TestRunCancelled pins Ctrl-C behavior: a cancelled context aborts the
// dispatched experiment with context.Canceled.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	err := run(ctx, &b, cliOptions{exp: "fig2", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestProfilesValidAfterCancelledRun pins the profile shutdown path: when
// the measured run is aborted by Ctrl-C, stopProf still finalizes both
// pprof outputs, and the files on disk are complete gzip-framed profiles
// rather than truncated stubs.
func TestProfilesValidAfterCancelledRun(t *testing.T) {
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.out")
	memPath := filepath.Join(dir, "mem.out")
	stopProf, err := startProfiles(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	if err := run(ctx, &b, cliOptions{exp: "fig2", scale: smallScale, chunkBytes: 64 * 1024, n: 1 << 14, mode: "table", quiet: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if err := stopProf(); err != nil {
		t.Fatalf("stopProf after cancelled run: %v", err)
	}
	for _, p := range []string{cpuPath, memPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		// runtime/pprof writes gzip-compressed protobuf; a valid file is
		// non-empty and starts with the gzip magic.
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("profile %s is not a gzip-framed pprof file (%d bytes)", p, len(data))
		}
	}
}

// TestRunRepro pins the offline replay loop end to end: a fault-injected
// failure on an in-process server is exported as a repro bundle, and
// `cascade-sim -repro bundle.json` replays it to the identical failure.
// Then the divergence path: stripping the fault spec from the bundle
// makes the replay succeed, which -repro must report as a nonzero-exit
// divergence, not a pass.
func TestRunRepro(t *testing.T) {
	const spec = "exp.panic:n=1"
	inj, err := faults.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Workers: 1, Faults: inj, FaultSpec: spec, FaultSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	// Small-scale quickstart keeps the defanged replay below fast: with
	// the fault spec stripped, -repro really runs the experiment.
	v, err := s.Submit("quickstart", server.JobParams{Scale: smallScale, ChunkKB: 64, N: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Await(v.ID, 10*time.Second, nil); !ok || got.State != server.StateFailed {
		t.Fatalf("job = %+v, want failed", got)
	}
	bundle, err := s.Repro(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(bundle)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := run(context.Background(), &b, cliOptions{repro: path}); err != nil {
		t.Fatalf("-repro on a faithful bundle: %v\n%s", err, b.String())
	}
	if out := b.String(); !strings.Contains(out, "reproduced:") || !strings.Contains(out, "injected panic") {
		t.Errorf("replay output missing the reproduced failure:\n%s", out)
	}

	// Strip the recorded fault spec: the replay now succeeds, so the
	// bundle's determinism claim fails to hold and -repro must say so.
	defanged := *bundle
	defanged.Faults = nil
	raw, err = json.Marshal(&defanged)
	if err != nil {
		t.Fatal(err)
	}
	divergent := filepath.Join(t.TempDir(), "divergent.json")
	if err := os.WriteFile(divergent, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	err = run(context.Background(), &b, cliOptions{repro: divergent})
	if err == nil || !strings.Contains(err.Error(), "repro diverged") {
		t.Errorf("-repro on a defanged bundle = %v, want divergence", err)
	}
	// Editing the bundle changed its replay inputs, so the stamped key
	// no longer matches — the replay warns before diverging.
	if !strings.Contains(b.String(), "edited bundle?") {
		t.Errorf("no edited-bundle warning in:\n%s", b.String())
	}

	if err := run(context.Background(), &b, cliOptions{repro: filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("-repro on a missing file succeeded")
	}
}

// pointTotal is one -point spec and the total cycles it must print.
type pointTotal struct {
	spec   string
	cycles int64
}

// checkPointTotals runs each spec through -point and checks its total;
// fig3 specs must also carry one row per PARMVR loop.
func checkPointTotals(t *testing.T, cases []pointTotal) {
	t.Helper()
	for _, tc := range cases {
		var b strings.Builder
		if err := run(context.Background(), &b, cliOptions{point: tc.spec}); err != nil {
			t.Fatalf("-point %s: %v", tc.spec, err)
		}
		var r experiments.PointResult
		if err := json.Unmarshal([]byte(b.String()), &r); err != nil {
			t.Fatalf("-point %s: output is not a PointResult: %v\n%s", tc.spec, err, b.String())
		}
		if r.Cycles != tc.cycles {
			t.Errorf("-point %s: %d cycles, want %d", tc.spec, r.Cycles, tc.cycles)
		}
		if strings.Contains(tc.spec, `"fig3"`) && len(r.Loops) != wave5.NumLoops {
			t.Errorf("-point %s: %d per-loop rows, want %d", tc.spec, len(r.Loops), wave5.NumLoops)
		}
	}
}

// TestRunPointFig3Totals pins -point against the totals of fig3's
// per-loop PARMVR calls (Pentium Pro, scale 0.05), as the PARMVR
// command -point replaced printed them. Variants precompute and wait
// are the helper's read-only precomputation and its run to completion
// without jumping out.
func TestRunPointFig3Totals(t *testing.T) {
	const fig3 = `{"experiment":"fig3","machine":"PentiumPro","strategy":%q,"procs":%d,"chunk_kb":%d,"scale":0.05,"variant":%q}`
	checkPointTotals(t, []pointTotal{
		{fmt.Sprintf(fig3, "restructured", 4, 64, ""), 9580601},
		{fmt.Sprintf(fig3, "sequential", 4, 64, ""), 17809164},
		{fmt.Sprintf(fig3, "restructured", 4, 64, "precompute"), 7414308},
		{fmt.Sprintf(fig3, "prefetched", 4, 64, "wait"), 11940638},
		{fmt.Sprintf(fig3, "restructured", 3, 16, ""), 9516774},
	})
}

// TestRunPointFig7Totals pins -point against the totals of fig7's
// synthetic loop (n=32768), as the synthetic-loop command -point
// replaced printed them.
func TestRunPointFig7Totals(t *testing.T) {
	const fig7 = `{"experiment":"fig7","machine":%q,"procs":%d,"strategy":%q,"chunk_kb":%d,"n":32768,"variant":%q}`
	checkPointTotals(t, []pointTotal{
		{fmt.Sprintf(fig7, "PentiumPro", 4, "restructured", 2, "sparse"), 81791},
		{fmt.Sprintf(fig7, "PentiumPro", 4, "sequential", 0, "sparse"), 1137792},
		{fmt.Sprintf(fig7, "R10000", 8, "prefetched", 8, "dense"), 605556},
		{fmt.Sprintf(fig7, "R10000", 8, "sequential", 0, "dense"), 1278720},
	})
}

// TestPointUsageErrors pins the -point refusals: each exits 1 with a
// cascade-sim message on stderr, before the point itself is simulated.
// Fig7, conflicts and warmsweep specs naming a field their point does
// not read are refused too (a warmsweep one once its prefix is built).
func TestPointUsageErrors(t *testing.T) {
	const spec = `{"experiment":"fig7","machine":"PentiumPro","procs":4,"strategy":"sequential","n":1024,"variant":"dense"}`
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown field", []string{"-point", `{"experiment":"fig7","machine":"PentiumPro","procs":4,"chunk":8}`}, `unknown field "chunk"`},
		{"procs 0", []string{"-point", strings.Replace(spec, `"procs":4`, `"procs":0`, 1)}, "procs 0"},
		{"unknown experiment", []string{"-point", strings.Replace(spec, "fig7", "fig99", 1)}, "no point decomposition"},
		{"with -exp", []string{"-point", spec, "-exp", "fig7"}, "drop -exp"},
		{"trailing data", []string{"-point", spec + "}"}, "data after the spec"},
		{"fig7 procs", []string{"-point", strings.Replace(spec, `"procs":4`, `"procs":1`, 1)}, "procs 1"},
		{"fig7 scale", []string{"-point", strings.Replace(spec, `"n":1024`, `"n":1024,"scale":7`, 1)}, "scale 7"},
		{"fig7 sequential chunk_kb", []string{"-point", strings.Replace(spec, `"n":1024`, `"n":1024,"chunk_kb":8`, 1)}, "chunk_kb 8"},
		{"conflicts chunk_kb", []string{"-point", `{"experiment":"conflicts","machine":"PentiumPro","procs":4,"strategy":"sequential","chunk_kb":8,"scale":0.01}`}, "chunk_kb 8"},
		{"conflicts strategy", []string{"-point", `{"experiment":"conflicts","machine":"PentiumPro","procs":4,"strategy":"prefetched","chunk_kb":8,"scale":0.01}`}, `strategy "prefetched"`},
		{"warmsweep chunk_kb", []string{"-point", `{"experiment":"warmsweep","machine":"PentiumPro","procs":4,"strategy":"restructured","chunk_kb":64,"scale":0.01,"warmup":2}`}, "chunk_kb 64"},
	} {
		stderr, code := runMain(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, "cascade-sim: ") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 and %q", tc.name, code, stderr, tc.want)
		}
	}
	if stderr, code := runMain(t, "-point", spec, "-q", "-json"); code != 0 {
		t.Errorf("-point with -q and -json: exit %d, stderr %q; want 0", code, stderr)
	}
}

// Command cascade-sim regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	cascade-sim -exp list                 # enumerate experiments
//	cascade-sim -exp table1|fig2|...|all  [flags]
//
// Experiments are dispatched through the experiments.Registry; -exp list
// prints every registered name with its description. The -scale flag
// shrinks the PARMVR dataset for quick runs (1.0 is the paper-scale
// enlarged dataset; figures in EXPERIMENTS.md use 1.0). The -csv flag
// switches table output to CSV for plotting, -chart draws ASCII charts
// for experiments that have them, and -json emits the raw result values.
//
// The -metrics flag emits the per-processor metric snapshots the
// simulator's registry records for each measured region — helper,
// execution, and transfer cycles per processor plus cache, TLB, victim
// and bus counters. "-metrics table" renders breakdown tables,
// "-metrics json" the raw snapshots. Without an explicit -exp it runs
// the quickstart scatter-add demonstration.
//
// The -cache flag points at a content-addressed result cache directory
// (the same store cascade-server's -cache uses): an experiment whose
// fully-resolved configuration was already simulated — by an earlier
// sweep or by the serving daemon — is answered from the cache instead
// of re-simulated. Entries are keyed per output mode; -json sweeps
// share entries with the server. Disk entries are checksummed: a
// corrupt entry is quarantined (renamed <key>.corrupt) and transparently
// recomputed, and a failed cache write degrades to a warning — the
// computed result is still printed.
//
// Interrupting a run (Ctrl-C) cancels the sweep promptly: in-flight
// simulation points finish, no new ones start, and the command exits
// with the cancellation error.
//
// The -parallel flag runs each simulated processor on its own host
// goroutine inside the fast engine's conservative lookahead window.
// Results are bit-identical to serial simulation — the flag only trades
// host cores for wall-clock time — so parallel and serial runs share
// -cache entries.
//
// The -repro flag replays a deterministic repro bundle — the JSON
// document GET /v1/jobs/{id}/repro serves for a failed job — instead of
// running experiments: the bundle's fault spec and seed are re-armed,
// the recorded failing unit (one sweep point, or the whole experiment)
// is re-executed under the same resolved parameters and deadline, and
// the replayed failure is compared against the recorded one. Exit
// status 0 means the failure reproduced identically; anything else —
// including a replay that unexpectedly succeeds — is reported and exits
// nonzero.
//
// The -cpuprofile and -memprofile flags write standard pprof profiles
// of whatever the invocation runs — the supported way to attribute
// simulator time to engine functions (`go tool pprof cascade-sim
// cpu.out`). The CPU profile covers the whole run; the heap profile is
// snapshotted after a forced GC at exit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/synthetic"
)

// cliOptions carries the parsed command line into run.
type cliOptions struct {
	exp        string
	scale      float64
	chunkBytes int
	n          int
	mode       string // table, csv, chart, json
	metrics    string // "", table, json
	cacheDir   string // "" = no memoization
	repro      string // path to a repro bundle to replay; "" = normal run
	quiet      bool
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment name, \"all\", or \"list\" to enumerate")
		scale   = flag.Float64("scale", 1.0, "PARMVR dataset scale factor (1.0 = paper-scale)")
		chunkKB = flag.Int("chunk", cascade.DefaultChunkBytes/1024, "chunk size in KB for fig2/fig3/fig4/fig5/quickstart")
		n       = flag.Int("n", synthetic.DefaultN, "synthetic-loop array length for fig7 and gallery")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		chart   = flag.Bool("chart", false, "draw ASCII charts instead of tables (figures only)")
		asJSON  = flag.Bool("json", false, "emit raw results as JSON (figures and studies)")
		metrics = flag.String("metrics", "", "emit per-processor metric snapshots: json or table (defaults -exp to quickstart)")
		cache   = flag.String("cache", "", "content-addressed result cache directory, shared with cascade-server")
		repro   = flag.String("repro", "", "replay a repro bundle JSON file (from GET /v1/jobs/{id}/repro) and verify the failure reproduces")
		quiet   = flag.Bool("q", false, "suppress progress messages")
		par     = flag.Bool("parallel", false, "simulate the processors on parallel host goroutines (bit-identical results)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	experiments.SetParallel(*par)
	opts := cliOptions{
		exp:        *exp,
		scale:      *scale,
		chunkBytes: *chunkKB * 1024,
		n:          *n,
		mode:       outputMode(*csv, *chart, *asJSON),
		metrics:    *metrics,
		cacheDir:   *cache,
		repro:      *repro,
		quiet:      *quiet,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cascade-sim:", err)
		os.Exit(1)
	}
	err = run(ctx, os.Stdout, opts)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cascade-sim:", err)
		os.Exit(1)
	}
}

// startProfiles turns on the requested pprof outputs and returns the
// function that finalizes them: stopping the CPU profile and, after the
// measured work has finished, snapshotting the heap. Profiling the
// simulator binary directly (rather than through go test -bench) is how
// the hot-path benchmarks in BENCH_hotpath.json were attributed to
// individual engine functions.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			runtime.GC() // settle the heap so the snapshot shows live data
			werr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr // a short write surfaces here, not silently
			}
			if werr != nil {
				return fmt.Errorf("memprofile: %w", werr)
			}
		}
		return nil
	}, nil
}

// outputMode folds the formatting flags into one selector.
func outputMode(csv, chart, asJSON bool) string {
	switch {
	case asJSON:
		return "json"
	case chart:
		return "chart"
	case csv:
		return "csv"
	default:
		return "table"
	}
}

// emitJSON writes a result value as indented JSON.
func emitJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// render writes a result in the selected output mode. Modes a result does
// not support fall back to its table rendering.
func render(w io.Writer, r experiments.Renderable, mode string) error {
	switch mode {
	case "json":
		return emitJSON(w, r)
	case "chart":
		if c, ok := r.(experiments.ChartRenderable); ok {
			c.RenderChart(w)
			return nil
		}
	case "csv":
		if c, ok := r.(experiments.CSVRenderable); ok {
			c.RenderCSV(w)
			fmt.Fprintln(w)
			return nil
		}
	}
	r.Render(w)
	return nil
}

// runRepro replays a repro bundle and verifies the recorded failure
// reproduces: same typed error code, same first error line (panic
// stacks carry run-varying addresses past the first line). A replay
// that fails differently — or succeeds — exits nonzero, because either
// way the bundle's claim of determinism did not hold on this build.
func runRepro(ctx context.Context, w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b server.ReproBundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("repro bundle %s: %w", path, err)
	}
	recorded := b.Key
	unit := "experiment " + b.Experiment
	if b.Point != nil {
		unit = fmt.Sprintf("point %d of %s", b.Point.Index, b.Experiment)
	}
	fmt.Fprintf(w, "replaying %s (job %s, %s)\n", path, b.Job, unit)
	if derived, err := b.DeriveKey(); err == nil && recorded != "" && derived != recorded {
		fmt.Fprintf(w, "warning: bundle key %s does not match its inputs (derived %s) — edited bundle?\n",
			recorded, derived)
	}
	replayed := server.RunRepro(ctx, &b)
	switch {
	case b.SameFailure(replayed):
		fmt.Fprintf(w, "reproduced: %s (%s)\n", server.FirstLine(replayed.Error()), b.ErrorCode)
		return nil
	case replayed == nil:
		return fmt.Errorf("repro diverged: recorded failure %q (%s), but the replay succeeded",
			server.FirstLine(b.Error), b.ErrorCode)
	default:
		return fmt.Errorf("repro diverged: recorded %q (%s), replayed %q (%s)",
			server.FirstLine(b.Error), b.ErrorCode,
			server.FirstLine(replayed.Error()), server.ErrorCodeOf(replayed))
	}
}

// list enumerates the registry from the same exported metadata the
// serving daemon's GET /v1/experiments returns.
func list(w io.Writer) {
	fmt.Fprintln(w, "experiments (run with -exp <name>, or -exp all):")
	for _, info := range experiments.Infos() {
		fmt.Fprintf(w, "  %-12s %s\n", info.Name, info.Description)
	}
	d := experiments.DefaultRunConfig()
	fmt.Fprintf(w, "defaults: -scale %g -chunk %d -n %d\n", d.Scale, d.ChunkBytes/1024, d.N)
}

func run(ctx context.Context, w io.Writer, opts cliOptions) error {
	if opts.repro != "" {
		return runRepro(ctx, w, opts.repro)
	}
	switch opts.metrics {
	case "", "table", "json":
	default:
		return fmt.Errorf("unknown -metrics mode %q (want table or json)", opts.metrics)
	}
	if opts.exp == "list" {
		list(w)
		return nil
	}
	// -metrics alone means "show me the metrics layer": the quickstart
	// demonstration is its smallest end-to-end run.
	if opts.metrics != "" && opts.exp == "all" {
		opts.exp = "quickstart"
	}
	mode := opts.mode
	if opts.metrics == "json" {
		mode = "json" // raw snapshots ride along in the result values
	}
	rc := experiments.RunConfig{
		Scale:      opts.scale,
		ChunkBytes: opts.chunkBytes,
		N:          opts.n,
	}
	if !opts.quiet {
		rc.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	var cache *server.Cache
	if opts.cacheDir != "" {
		var err error
		cache, err = server.NewCache(opts.cacheDir, nil)
		if err != nil {
			return err
		}
	}

	names := []string{opts.exp}
	if opts.exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		e, ok := experiments.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -exp list)", name)
		}
		var key string
		if cache != nil {
			jobKey, err := server.JobKey(name, server.JobParams{
				Scale:   opts.scale,
				ChunkKB: opts.chunkBytes / 1024,
				N:       opts.n,
			})
			if err != nil {
				return err
			}
			key = server.RenderKey(jobKey, mode)
			if val, ok := cache.Get(key); ok {
				if rc.Progress != nil {
					rc.Progress("%s served from cache", name)
				}
				if _, err := w.Write(val); err != nil {
					return err
				}
				continue
			}
		}
		start := time.Now()
		r, err := e.Run(ctx, rc)
		if err != nil {
			return err
		}
		if rc.Progress != nil {
			rc.Progress("%s done in %.1fs", name, time.Since(start).Seconds())
		}
		if cache == nil {
			if err := render(w, r, mode); err != nil {
				return err
			}
			continue
		}
		var buf bytes.Buffer
		if err := render(&buf, r, mode); err != nil {
			return err
		}
		if err := cache.Put(key, buf.Bytes()); err != nil {
			// Degrade, don't fail: the result is computed; only the
			// memoized copy for future runs is lost.
			fmt.Fprintf(os.Stderr, "cascade-sim: cache write failed (result not memoized): %v\n", err)
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

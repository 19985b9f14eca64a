// Command e2e is the repository's end-to-end benchmark. It builds
// cascade-sim, cascade-server and cascade-coordinator from the tree,
// drives them as their users do — CLI children for someone regenerating
// a paper figure, HTTP to one server or to a coordinator with two
// enlisted workers for an operator — checks every result against its
// golden hash, and prints every metric by name with its unit and sample
// count. The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 3.2, "unit": "s"}, ...}}
//
// Usage (from the repository root; bench/run.sh sets up the build
// environment and passes these flags through):
//
//	e2e [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|FILE]
//
// Without -workload every workload runs in turn. -trace 1 (or a file
// name) adds the traced in-process replay and its probes, reports the
// per-layer metrics instead of the end-to-end ones, prints a self-time
// table per layer, and writes the spans as JSON. -regen-golden rewrites
// testdata/golden.json from the tree's cascade-sim.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	spansFile string // "" = <root>/.bench_build/spans-<workload>.json
	smoke     bool   // one repetition at smokeScale
}

func main() {
	var (
		o     options
		trace string
		root  = flag.String("root", "", "repository root (default: the nearest parent holding cmd/cascade-sim)")
		regen = flag.Bool("regen-golden", false, "rewrite testdata/golden.json from the tree's cascade-sim and exit")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's request order")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement budget per workload, in seconds")
	flag.StringVar(&trace, "trace", "0", `"1" or a spans file name runs the traced replay and reports per-layer metrics`)
	flag.Parse()
	o.traced = trace != "0"
	if o.traced && trace != "1" {
		o.spansFile = trace
	}
	if err := run(*root, *regen, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(root string, regen bool, o options, out io.Writer) error {
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	workDir := filepath.Join(root, ".bench_build")
	bins, err := buildBinaries(root, filepath.Join(workDir, "bin"))
	if err != nil {
		return err
	}
	if regen {
		return regenGoldens(bins, root)
	}
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	var selected []workload
	if o.workload == "" {
		selected = workloads
	} else if w, ok := lookupWorkload(o.workload); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	scratch, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	h := &harness{bins: bins, golden: g, hc: newHTTPClient(), dir: scratch}
	for _, w := range selected {
		spans := o.spansFile
		if spans == "" {
			spans = filepath.Join(workDir, "spans-"+w.name+".json")
		}
		rp, err := h.runWorkload(w, o, spans, out)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rp.result(o.traced))
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(line))
	}
	return nil
}

// findRoot returns dir, or the nearest parent of the working directory
// that holds cmd/cascade-sim.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "cmd", "cascade-sim")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", errors.New("no repository root (a directory holding cmd/cascade-sim) above the working directory")
		}
		d = parent
	}
}

// report is everything one workload's run measured.
type report struct {
	tally
	endToEnd, perLayer []metric          // perLayer is empty untraced
	hashes             map[string]string // job key -> hash of its result from the programs under test
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result reports the per-layer metrics of a traced run and the
// end-to-end metrics otherwise. A metric a failed run could not compute
// (NaN or infinite) reads 0.
func (r report) result(traced bool) result {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	res := result{Attempted: r.ops, Failed: len(r.fails), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

// runWorkload measures one workload and prints its report. Untraced, the
// whole budget goes to repetitions. Traced, 40% goes to untraced
// repetitions (for the outside-in ratios), the rest to traced replays,
// then the probes run.
func (h *harness) runWorkload(w workload, o options, spansFile string, out io.Writer) (report, error) {
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	untracedEnd := start.Add(budget)
	if o.traced {
		untracedEnd = start.Add(budget * 2 / 5)
	}
	rp := report{hashes: map[string]string{}}
	var reps []rep
	ref := newHostRef()
	before := ref.sample()
	repeat(untracedEnd, o.smoke, func(i int) error {
		r := h.runRep(w, w.jobs(repRand(o.seed, i), o.smoke))
		after := ref.sample()
		r.ref, before = (before+after)/2, after
		reps = append(reps, r)
		rp.add(r.tally)
		for _, j := range r.jobs {
			if j.err == nil {
				rp.hashes[j.job.key()] = hashBytes(j.bytes)
			}
		}
		return nil
	})
	mode := "untraced"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s  seed %d  %s  %d repetitions\n", w.name, o.seed, mode, len(reps))
	for i, r := range reps {
		fmt.Fprintf(out, "  rep %d: wall %.3fs cpu %.3fs rss %.1fMiB setup %.2fms ref %.1fms jobs %d\n",
			i, r.wall.Seconds(), r.use.cpu.Seconds(), float64(r.use.rssKB)/1024, millis(r.setup), millis(r.ref), len(r.jobs))
	}
	rp.endToEnd = endToEnd(reps)
	printMetrics(out, "end-to-end", rp.endToEnd)
	if !o.traced {
		printMetrics(out, pathTitle, pathMetrics(w, reps, nil))
	}

	if o.traced {
		tr := newTracer()
		var replays []replayRep
		err := repeat(start.Add(budget*17/20), o.smoke, func(i int) error {
			dir, err := h.freshDir()
			if err != nil {
				return err
			}
			js := w.jobs(repRand(o.seed, i), o.smoke)
			var rr replayRep
			if w.path == pathServer {
				rr = h.replayServer(tr, js, dir)
			} else {
				rr = h.replayJobs(tr, js, w.path == pathFleet, dir)
			}
			replays = append(replays, rr)
			rp.add(rr.tally)
			return nil
		})
		if err != nil {
			return rp, err
		}
		p, err := h.probe(tr, w.jobs(repRand(o.seed, 0), o.smoke), replays)
		if err != nil {
			err = fmt.Errorf("probe: %w", err)
		}
		rp.record(err)
		spans := tr.snapshot()
		rp.perLayer = perLayer(reps, replays, p, spans)
		printMetrics(out, fmt.Sprintf("per-layer (%d traced replays)", len(replays)), rp.perLayer)
		printMetrics(out, pathTitle, pathMetrics(w, reps, spans))
		fmt.Fprintln(out, "  self time by span")
		printSelfTimes(out, spans)
		if err := writeSpans(spansFile, w.name, spans); err != nil {
			return rp, err
		}
		fmt.Fprintf(out, "  spans written to %s\n", spansFile)
	}
	for _, f := range rp.fails {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	return rp, nil
}

const pathTitle = "path-specific (not in BENCHMARK.json)"

// repeat calls f for repetition 0, 1, ... until starting another would
// likely end past deadline (judged by the last repetition's length) or f
// fails; smoke runs exactly one.
func repeat(deadline time.Time, smoke bool, f func(i int) error) error {
	var last time.Duration
	for i := 0; ; i++ {
		if i > 0 && (smoke || time.Now().Add(last).After(deadline)) {
			return nil
		}
		t := time.Now()
		if err := f(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// repRand seeds repetition i's request order from the run's seed.
func repRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

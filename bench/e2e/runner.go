package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// harness holds what every repetition shares.
type harness struct {
	bins   binaries
	golden goldens
	hc     *http.Client
	dir    string // scratch directory of this run, removed at exit
	nextID atomic.Int64
}

// freshDir returns a new empty directory under the run's scratch dir.
func (h *harness) freshDir() (string, error) {
	d := filepath.Join(h.dir, fmt.Sprintf("d%d", h.nextID.Add(1)))
	return d, os.MkdirAll(d, 0o755)
}

// tally counts operations and keeps the messages of the failed ones.
type tally struct {
	ops   int
	fails []string
}

// record counts one operation, failed when err is not nil.
func (t *tally) record(err error) {
	t.ops++
	if err != nil {
		t.fails = append(t.fails, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.fails = append(t.fails, o.fails...)
}

// rep is one untraced repetition of a workload, measured from outside.
type rep struct {
	tally
	wall   time.Duration // first request sent → last result received
	setup  time.Duration // median of setupSamples
	ref    time.Duration // host reference time around the repetition (hostref.go)
	use    usage         // processes under test; rssKB summed over concurrent daemons
	jobs   []jobOutcome
	scrape scrapes
}

// scrapes are the /metrics counters read after a daemon repetition.
type scrapes struct {
	coordinator map[string]int64   // nil off the fleet path
	workers     []map[string]int64 // fleet workers, or the one server
}

// checkJobs counts each job as one operation, failed when it errored or
// missed its golden hash.
func (r *rep) checkJobs(g goldens) {
	for _, o := range r.jobs {
		err := o.err
		if err == nil {
			err = g.check(o.job, o.bytes)
		}
		r.record(err)
	}
}

// conserved checks that counter total equals the sum of parts, naming
// every counter when it does not.
func conserved(who string, m map[string]int64, total string, parts ...string) error {
	s := int64(0)
	for _, p := range parts {
		s += m[p]
	}
	if m[total] == s {
		return nil
	}
	msg := fmt.Sprintf("%s: %s = %d, but", who, total, m[total])
	for _, p := range parts {
		msg += fmt.Sprintf(" %s %d", p, m[p])
	}
	return errors.New(msg)
}

// setupSamples is how many times a repetition times set-up: the CLI's
// start-up as exec → exit of `cascade-sim -exp list`, a daemon path's as
// exec → ready of all its daemons, which are stopped again at once for
// every sample but the last.
const setupSamples = 5

func (h *harness) cliRep(js []job) rep {
	var r rep
	var setups []float64
	for k := 0; k < setupSamples; k++ {
		start := time.Now()
		if err := command(h.bins.sim, "-exp", "list").Run(); err != nil {
			r.record(fmt.Errorf("cascade-sim -exp list: %w", err))
			return r
		}
		setups = append(setups, float64(time.Since(start)))
	}
	r.setup = time.Duration(median(setups))
	start := time.Now()
	for _, j := range js {
		var out, errb bytes.Buffer
		cmd := command(h.bins.sim, cliArgs(j)...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		t := time.Now()
		err := cmd.Run()
		o := jobOutcome{job: j, latency: time.Since(t), bytes: out.Bytes(), err: err}
		if err != nil {
			o.err = fmt.Errorf("%s: %v: %s", j.key(), err, errb.String())
		}
		// The children run one after another, so the peak is the largest.
		u := usageOf(cmd.ProcessState)
		r.use.cpu += u.cpu
		r.use.rssKB = max(r.use.rssKB, u.rssKB)
		r.jobs = append(r.jobs, o)
	}
	r.wall = time.Since(start)
	r.checkJobs(h.golden)
	return r
}

// fleetWorkers is the fleet's size.
const fleetWorkers = 2

// startFleet boots a coordinator and its workers over one shared cache
// directory and returns them, coordinator first, once both workers are
// alive in /v1/workers.
func (h *harness) startFleet() ([]*daemon, error) {
	dir, err := h.freshDir()
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(dir, "cache")
	coord, err := launch(h.bins.coordinator, "-addr", "127.0.0.1:0", "-cache", cacheDir, "-journal", filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	procs := []*daemon{coord}
	if err := coord.ready(); err != nil {
		stopAll(procs)
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		w, err := launch(h.bins.server, "-addr", "127.0.0.1:0", "-cache", cacheDir,
			"-coordinator", coord.url, "-warm-prefixes", "-name", fmt.Sprintf("w%d", i))
		if err != nil {
			stopAll(procs)
			return nil, err
		}
		procs = append(procs, w)
	}
	for _, w := range procs[1:] {
		if err := w.ready(); err != nil {
			stopAll(procs)
			return nil, err
		}
	}
	if err := pollUntil("workers to enlist", func() bool { return aliveWorkers(h.hc, coord.url) == fleetWorkers }); err != nil {
		stopAll(procs)
		return nil, err
	}
	return procs, nil
}

// startServer boots one cascade-server with default settings and
// returns it once /healthz answers ok.
func (h *harness) startServer() ([]*daemon, error) {
	dir, err := h.freshDir()
	if err != nil {
		return nil, err
	}
	srv, err := launch(h.bins.server, "-addr", "127.0.0.1:0", "-cache", filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	procs := []*daemon{srv}
	if err := srv.ready(); err == nil {
		err = pollUntil("server health", func() bool { return healthy(h.hc, srv.url) })
	}
	if err != nil {
		stopAll(procs)
		return nil, err
	}
	return procs, nil
}

// clients is the number of closed-loop clients sending a repetition's
// jobs: each sends its next job once its last one has returned.
const clients = 2

func (h *harness) daemonRep(w workload, js []job) rep {
	var r rep
	start := h.startServer
	if w.path == pathFleet {
		start = h.startFleet
	}
	var setups []float64
	var procs []*daemon
	defer func() {
		if procs != nil {
			stopAll(procs)
		}
	}()
	for k := 0; k < setupSamples; k++ {
		if procs != nil {
			stopAll(procs)
		}
		t := time.Now()
		var err error
		if procs, err = start(); err != nil {
			r.record(fmt.Errorf("start daemons: %w", err))
			return r
		}
		setups = append(setups, float64(time.Since(t)))
	}
	r.setup = time.Duration(median(setups))

	front := procs[0].url
	r.jobs = make([]jobOutcome, len(js))
	t := time.Now()
	runLanes(len(js), clients, 0, func(_, i int) { r.jobs[i] = submitAndWait(h.hc, front, js[i]) })
	r.wall = time.Since(t)
	r.checkJobs(h.golden)

	for i, d := range procs {
		m, err := scrapeMetrics(h.hc, d.url)
		if err != nil {
			r.record(fmt.Errorf("scrape %s: %w", d.url, err))
			continue
		}
		if w.path == pathFleet && i == 0 {
			r.scrape.coordinator = m
			r.record(conserved("coordinator", m, "fabric.points.assigned", "fabric.points.completed", "fabric.points.retried", "fabric.points.failed"))
			r.record(conserved("coordinator", m, "fabric.jobs.submitted", "fabric.jobs.completed", "fabric.jobs.failed"))
			continue
		}
		r.scrape.workers = append(r.scrape.workers, m)
		r.record(conserved(d.url, m, "jobs.submitted", "jobs.completed", "jobs.failed"))
	}
	r.use = stopAll(procs)
	procs = nil
	h.hc.CloseIdleConnections()
	return r
}

func (h *harness) runRep(w workload, js []job) rep {
	if w.path == pathCLI {
		return h.cliRep(js)
	}
	return h.daemonRep(w, js)
}

package main

import (
	"fmt"
	"math/rand"

	"repro/internal/server"
)

// job is one experiment request with fully resolved parameters: the unit
// a user submits, and the unit goldens are keyed by.
type job struct {
	Experiment string
	Params     server.JobParams
}

func newJob(experiment string, scale float64) job {
	return job{Experiment: experiment, Params: server.JobParams{Scale: scale}.WithDefaults()}
}

// key names the job in golden.json and in reports.
func (j job) key() string {
	return fmt.Sprintf("%s scale=%g chunk_kb=%d n=%d", j.Experiment, j.Params.Scale, j.Params.ChunkKB, j.Params.N)
}

// path is how a workload's jobs reach the simulator.
type path int

const (
	pathCLI    path = iota // one cascade-sim child per job
	pathFleet              // cascade-coordinator + two enlisted cascade-server workers
	pathServer             // one cascade-server with default settings
)

// workload is one fixed set of inputs. jobs returns the request sequence
// of one repetition; rng is seeded from -seed and the repetition index
// and changes only the order of requests, never their set, so every seed
// costs the same work.
type workload struct {
	name string
	path path
	jobs func(rng *rand.Rand, smoke bool) []job
}

// smokeScale is the smallest scale any workload runs at; the smoke test
// replaces every job's scale with it.
const smokeScale = 0.01

// mixedFresh is mixed-server's set of distinct jobs per repetition: every
// experiment the server runs whole (fig3-5, conflicts, quickstart,
// table1) plus the three decomposable sweeps, at scales spread over
// [0.01, 0.03].
var mixedFresh = []job{
	newJob("table1", 0.01),
	newJob("quickstart", 0.03),
	newJob("fig3", 0.02),
	newJob("fig4", 0.01),
	newJob("fig5", 0.03),
	newJob("conflicts", 0.02),
	newJob("fig2", 0.01),
	newJob("fig6", 0.02),
	newJob("warmsweep", 0.03),
}

// mixedRepeats is how many submissions per repetition repeat an already
// issued job (6 of 15, 40%): a repeat of a finished job is a cache hit,
// one of a queued or running job coalesces with it.
const mixedRepeats = 6

var workloads = []workload{
	// Simulator-bound: no server, fabric or journal, so a change to the
	// serving layers must leave it flat.
	{name: "figs-cli", path: pathCLI, jobs: func(rng *rand.Rand, smoke bool) []job {
		js := []job{scaled(newJob("fig2", 0.05), smoke), scaled(newJob("fig6", 0.05), smoke)}
		rng.Shuffle(len(js), func(i, k int) { js[i], js[k] = js[k], js[i] })
		return js
	}},
	// 42 equal-cost points over two workers: lease sizing, load balance,
	// dispatch RPC, journal and merge sit on the critical path, and the
	// prefix is only a dataset build.
	{name: "fig6-fleet", path: pathFleet, jobs: func(rng *rand.Rand, smoke bool) []job {
		return []job{scaled(newJob("fig6", 0.05), smoke)}
	}},
	// 10 points in 2 prefix groups on the same fleet: prefix build and
	// fork dominate and dispatch is negligible, the opposite split.
	{name: "warmsweep-fleet", path: pathFleet, jobs: func(rng *rand.Rand, smoke bool) []job {
		return []job{scaled(newJob("warmsweep", 0.1), smoke)}
	}},
	// The only workload where queue wait, cache reads beside writes,
	// single-flight and per-job HTTP cost are a visible share, and the
	// only one running the non-decomposed drivers.
	{name: "mixed-server", path: pathServer, jobs: mixedJobs},
}

// mixedJobs shuffles the fresh set and inserts the repeats, each at a
// random position after its original. Smoke size keeps one repeat.
func mixedJobs(rng *rand.Rand, smoke bool) []job {
	js := make([]job, len(mixedFresh))
	for i, j := range mixedFresh {
		js[i] = scaled(j, smoke)
	}
	rng.Shuffle(len(js), func(i, k int) { js[i], js[k] = js[k], js[i] })
	repeats := mixedRepeats
	if smoke {
		repeats = 1
	}
	for r := 0; r < repeats; r++ {
		orig := rng.Intn(len(js))
		at := orig + 1 + rng.Intn(len(js)-orig)
		js = append(js[:at], append([]job{js[orig]}, js[at:]...)...)
	}
	return js
}

func scaled(j job, smoke bool) job {
	if smoke {
		j.Params.Scale = smokeScale
	}
	return j
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// allJobs lists every distinct job any workload can issue, at both sizes:
// the set golden.json covers. Seeds only reorder jobs, so one suffices.
func allJobs() []job {
	seen := map[string]bool{}
	var out []job
	for _, w := range workloads {
		for _, smoke := range []bool{false, true} {
			for _, j := range w.jobs(rand.New(rand.NewSource(0)), smoke) {
				if !seen[j.key()] {
					seen[j.key()] = true
					out = append(out, j)
				}
			}
		}
	}
	return out
}

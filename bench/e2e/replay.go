package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/server"
)

// The traced run replays a workload's jobs in-process through the
// layers' public functions, with points at 2-way parallelism, and times
// each call as a span:
//
//   - CLI path: Decompose, RunPoint (cold), MergePoints, RenderJSON;
//   - fleet path: as the coordinator and its warm workers do it, with
//     canon.PointKey, journal.Append around each point, the worker's
//     PrefixCache.RunPoint, json.Marshal of the wire form, and
//     Cache.Put of point and merged results;
//   - server path: server.New with Submit and Await from two client
//     lanes, the registry's run functions wrapped so that sweeps run
//     through the same point spans and every other experiment is one
//     experiments.Run span.

const pointLanes = 2

// pointStat is one traced sweep point.
type pointStat struct {
	dur  time.Duration
	spec experiments.PointSpec
	res  experiments.PointResult
}

// replayRep is one traced repetition.
type replayRep struct {
	tally
	wall    time.Duration
	points  []pointStat
	outputs map[string][]byte // job key -> result bytes
}

// check counts one job, failed when err is set or b misses its golden.
func (r *replayRep) check(g goldens, j job, b []byte, err error) {
	if err == nil {
		err = g.check(j, b)
	}
	r.record(err)
	if err == nil {
		r.outputs[j.key()] = b
	}
}

// runLanes runs f(lane, i) for every i in [0, n) on the given number of
// goroutines, lanes numbered from base.
func runLanes(n, lanes, base int, f func(lane, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(lane, i)
			}
		}(base + l)
	}
	wg.Wait()
}

// fleetLayers are the coordinator-side stores the fleet path touches.
type fleetLayers struct {
	journal *journal.Journal
	cache   *server.Cache
}

// sweep is one decomposable job's traced point phase.
type sweep struct {
	tr     *tracer
	pts    int // the points span
	label  string
	warm   bool // run points through one PrefixCache per lane, as workers do
	fl     *fleetLayers
	caches []*experiments.PrefixCache
}

// runSweep runs a decomposable job's points and merge under parent, on
// lanes laneBase+1 and laneBase+2.
func runSweep(tr *tracer, parent int, j job, laneBase int, warm bool, fl *fleetLayers) (experiments.Renderable, []pointStat, error) {
	s := sweep{tr: tr, label: j.key(), warm: warm, fl: fl}
	var specs []experiments.PointSpec
	tr.do(parent, "experiments.Decompose", s.label, -1, laneBase, func() {
		specs, _ = experiments.Decompose(j.Experiment, j.Params.RunConfig())
	})
	for i := 0; i < pointLanes; i++ {
		s.caches = append(s.caches, experiments.NewPrefixCache(0))
	}
	stats := make([]pointStat, len(specs))
	errs := make([]error, len(specs))
	s.pts = tr.begin(parent, spanPoints, s.label, -1, laneBase)
	runLanes(len(specs), pointLanes, laneBase+1, func(lane, i int) {
		errs[i] = s.point(lane, s.caches[lane-laneBase-1], specs[i], &stats[i])
	})
	tr.end(s.pts)
	results := make([]experiments.PointResult, len(specs))
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("%s point %d: %w", s.label, i, err)
		}
		results[i] = stats[i].res
	}
	var merged experiments.Renderable
	var err error
	tr.do(parent, "experiments.MergePoints", s.label, -1, laneBase, func() {
		merged, err = experiments.MergePoints(j.Experiment, j.Params.RunConfig(), results)
	})
	return merged, stats, err
}

func (s *sweep) point(lane int, pc *experiments.PrefixCache, spec experiments.PointSpec, st *pointStat) error {
	ctx := context.Background()
	i := spec.Index
	var key string
	var err error
	if s.fl != nil {
		s.tr.do(s.pts, "canon.PointKey", s.label, i, lane, func() { key, err = canon.PointKey(spec) })
		if err != nil {
			return err
		}
		s.tr.do(s.pts, "journal.Append", s.label, i, lane, func() {
			err = s.fl.journal.Append(journal.Record{Type: journal.TypePointAssigned, Job: s.label, Index: i, Key: key, Epoch: 1})
		})
		if err != nil {
			return err
		}
	}
	st.spec = spec
	name := "experiments.RunPoint"
	if s.warm {
		name = "experiments.PrefixCache.RunPoint"
	}
	st.dur = s.tr.do(s.pts, name, s.label, i, lane, func() {
		warm := false
		if s.warm {
			st.res, warm, err = pc.RunPoint(ctx, spec)
		}
		if !warm {
			st.res, err = experiments.RunPoint(ctx, spec)
		}
	})
	if err != nil || s.fl == nil {
		return err
	}
	var wire []byte
	s.tr.do(s.pts, "json.Marshal", s.label, i, lane, func() { wire, err = json.Marshal(st.res) })
	if err != nil {
		return err
	}
	s.tr.do(s.pts, "journal.Append", s.label, i, lane, func() {
		err = s.fl.journal.Append(journal.Record{Type: journal.TypePointCompleted, Job: s.label, Index: i, Key: key})
	})
	if err != nil {
		return err
	}
	s.tr.do(s.pts, "server.Cache.Put", s.label, i, lane, func() { err = s.fl.cache.Put(key, wire) })
	return err
}

// replayJobs traces the CLI or fleet path: jobs one after another, each
// decomposed, swept, merged and rendered; the fleet path also keeps a
// journal and a disk result index in dir.
func (h *harness) replayJobs(tr *tracer, js []job, fleet bool, dir string) replayRep {
	rep := replayRep{outputs: map[string][]byte{}}
	var fl *fleetLayers
	if fleet {
		jr, _, err := journal.Open(filepath.Join(dir, "journal"), nil)
		if err != nil {
			rep.record(err)
			return rep
		}
		defer jr.Close()
		cache, err := server.NewCache(filepath.Join(dir, "cache"), nil)
		if err != nil {
			rep.record(err)
			return rep
		}
		fl = &fleetLayers{journal: jr, cache: cache}
	}
	rid := tr.begin(0, spanRep, "", -1, 0)
	for _, j := range js {
		jid := tr.begin(rid, spanJob, j.key(), -1, 0)
		merged, points, err := runSweep(tr, jid, j, 0, fleet, fl)
		rep.points = append(rep.points, points...)
		var out []byte
		if err == nil {
			tr.do(jid, "server.RenderJSON", j.key(), -1, 0, func() { out, err = server.RenderJSON(merged) })
		}
		if err == nil && fl != nil {
			key := hashBytes([]byte(j.key()))
			tr.do(jid, "server.Cache.Put", j.key(), -1, 0, func() { err = fl.cache.Put(key, out) })
		}
		tr.end(jid)
		rep.check(h.golden, j, out, err)
	}
	rep.wall = tr.end(rid)
	return rep
}

// Lanes of the server-path replay: two clients, the server's job
// worker, and the worker's point lanes after it.
const (
	clientLanes = 1 // clients run on lanes 1 and 2
	serverLane  = 3
)

// replayServer traces the server path: one server.New per repetition,
// two client lanes submitting and awaiting the jobs in order.
func (h *harness) replayServer(tr *tracer, js []job, dir string) replayRep {
	rep := replayRep{outputs: map[string][]byte{}}
	rid := tr.begin(0, spanRep, "", -1, 0)
	var mu sync.Mutex // guards rep.points from the server's worker
	reg := experiments.Registry()
	for i := range reg {
		name, run := reg[i].Name, reg[i].Run
		reg[i].Run = func(ctx context.Context, rc experiments.RunConfig) (experiments.Renderable, error) {
			j := job{Experiment: name, Params: server.JobParams{Scale: rc.Scale, ChunkKB: rc.ChunkBytes / 1024, N: rc.N}}
			jid := tr.begin(rid, spanJob, j.key(), -1, serverLane)
			defer tr.end(jid)
			var r experiments.Renderable
			var err error
			if experiments.Decomposable(name) {
				// Only warmsweep's driver shares one prefix across its
				// points; fig2 and fig6 rebuild theirs per point.
				var points []pointStat
				r, points, err = runSweep(tr, jid, j, serverLane, name == "warmsweep", nil)
				mu.Lock()
				rep.points = append(rep.points, points...)
				mu.Unlock()
			} else {
				tr.do(jid, "experiments.Run", j.key(), -1, serverLane, func() { r, err = run(ctx, rc) })
			}
			return r, err
		}
	}
	srv, err := server.New(server.Config{CacheDir: filepath.Join(dir, "cache"), Experiments: reg})
	if err != nil {
		tr.end(rid)
		rep.record(err)
		return rep
	}
	outcomes := make([]error, len(js))
	views := make([]server.JobView, len(js))
	runLanes(len(js), clients, clientLanes, func(lane, i int) {
		var v server.JobView
		var err error
		tr.do(rid, "server.Submit", js[i].key(), -1, lane, func() { v, err = srv.Submit(js[i].Experiment, js[i].Params) })
		if err == nil && v.State != server.StateDone && v.State != server.StateFailed {
			tr.do(rid, spanAwait, js[i].key(), -1, lane, func() { v, _ = srv.Await(v.ID, 2*time.Minute, nil) })
		}
		if err == nil && v.State != server.StateDone {
			err = fmt.Errorf("%s: job %s ended %s: %s", js[i].key(), v.ID, v.State, v.Error)
		}
		views[i], outcomes[i] = v, err
	})
	rep.wall = tr.end(rid)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		rep.record(fmt.Errorf("server shutdown: %w", err))
	}
	for i, j := range js {
		rep.check(h.golden, j, views[i].Result, outcomes[i])
	}
	return rep
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/server"
)

// Probes time the layer calls no replay makes, on a workload's own inputs
// and outputs and outside the replay's wall time: the warm workers'
// prefix build, a result-cache read from disk, and the worker's point RPC
// answered from its cache. Their spans sit on probeLane under one probe
// span.

// probeResults are per-call durations in milliseconds.
type probeResults struct {
	prefixBuild, cacheGet, rpc []float64
}

func (h *harness) probe(tr *tracer, js []job, replays []replayRep) (probeResults, error) {
	var p probeResults
	pid := tr.begin(0, spanProbe, "", -1, probeLane)
	defer tr.end(pid)
	ms := func(name string, f func()) float64 {
		return millis(tr.do(pid, name, "", -1, probeLane, f))
	}

	// One BuildPrefix per distinct prefix group of the decomposable jobs.
	seen := map[experiments.PrefixSpec]bool{}
	for _, j := range distinct(js) {
		specs, _ := experiments.Decompose(j.Experiment, j.Params.RunConfig())
		for _, ps := range specs {
			spec := prefixOf(ps)
			if seen[spec] {
				continue
			}
			seen[spec] = true
			var err error
			p.prefixBuild = append(p.prefixBuild, ms("experiments.BuildPrefix", func() {
				_, err = experiments.BuildPrefix(context.Background(), spec)
			}))
			if err != nil {
				return p, err
			}
		}
	}

	// Every result of every replay is stored, then read once through a
	// fresh Cache, whose empty memory makes the read go to disk.
	for _, rr := range replays {
		dir, err := h.freshDir()
		if err != nil {
			return p, err
		}
		keys := make([]string, 0, len(rr.outputs))
		for k := range rr.outputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		put, err := server.NewCache(dir, nil)
		if err != nil {
			return p, err
		}
		for _, k := range keys {
			if err := put.Put(hashBytes([]byte(k)), rr.outputs[k]); err != nil {
				return p, err
			}
		}
		get, err := server.NewCache(dir, nil)
		if err != nil {
			return p, err
		}
		for _, k := range keys {
			var ok bool
			key := hashBytes([]byte(k))
			p.cacheGet = append(p.cacheGet, ms("server.Cache.Get", func() { _, ok = get.Get(key) }))
			if !ok {
				return p, fmt.Errorf("cache probe: %s missing after Put", k)
			}
		}
	}

	if len(replays[0].points) > 0 {
		dir, err := h.freshDir()
		if err != nil {
			return p, err
		}
		p.rpc, err = h.rpcProbe(tr, pid, dir, replays[0].points)
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// rpcProbe times POST /v1/points of each already computed point once
// against a live worker (an in-process server on a loopback port), which
// answers from its cache with "cached": true. One untimed call first
// opens the connection, as a coordinator's kept-alive one would be.
func (h *harness) rpcProbe(tr *tracer, pid int, dir string, done []pointStat) ([]float64, error) {
	seed, err := server.NewCache(dir, nil)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(done))
	for i, ps := range done {
		key, err := canon.PointKey(ps.spec)
		if err != nil {
			return nil, err
		}
		wire, err := json.Marshal(ps.res)
		if err != nil {
			return nil, err
		}
		if err := seed.Put(key, wire); err != nil {
			return nil, err
		}
		if bodies[i], err = json.Marshal(map[string]interface{}{"key": key, "point": ps.spec}); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	}()
	url := "http://" + ln.Addr().String() + "/v1/points"
	var out []float64
	for i := -1; i < len(done); i++ {
		body, point := bodies[max(i, 0)], done[max(i, 0)].spec.Index
		var env server.Envelope
		d := tr.do(pid, "POST /v1/points", "", point, probeLane, func() {
			env, err = doEnvelope(h.hc, http.MethodPost, url, body)
		})
		if err != nil {
			return nil, err
		}
		if !env.Cached {
			return nil, fmt.Errorf("rpc probe: worker recomputed point %d instead of answering from its cache", point)
		}
		if i >= 0 {
			out = append(out, millis(d))
		}
	}
	h.hc.CloseIdleConnections()
	return out, nil
}

// prefixOf is the prefix group a point shares with its sweep siblings:
// the decompositions key warm prefixes by machine, processor count and
// scale, plus the warm-up calls and data distribution of warmsweep.
func prefixOf(ps experiments.PointSpec) experiments.PrefixSpec {
	return experiments.PrefixSpec{Machine: ps.Machine, Procs: ps.Procs, Scale: ps.Scale,
		WarmupCalls: ps.Warmup, Distribute: ps.Warmup > 0}
}

func distinct(js []job) []job {
	seen := map[string]bool{}
	var out []job
	for _, j := range js {
		if !seen[j.key()] {
			seen[j.key()] = true
			out = append(out, j)
		}
	}
	return out
}

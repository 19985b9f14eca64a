package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// metric is one reported number: n is its sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// succeeded keeps the repetitions in which every operation succeeded: one
// that failed part-way has no meaningful timing, and would pull medians
// toward zero.
func succeeded(reps []rep) []rep {
	var out []rep
	for _, r := range reps {
		if len(r.fails) == 0 && len(r.jobs) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// endToEnd reduces the succeeded untraced repetitions to the user-visible
// metrics, each host time taken at the reference speed (hostref.go); n
// counts those repetitions.
func endToEnd(reps []rep) []metric {
	reps = succeeded(reps)
	var walls, cpus, setups []float64
	for _, r := range reps {
		walls = append(walls, r.atRefSpeed(r.wall))
		cpus = append(cpus, r.atRefSpeed(r.use.cpu))
		setups = append(setups, r.atRefSpeed(r.setup))
	}
	n := len(reps)
	return []metric{
		{"wall_s", "s", median(walls), n},
		{"cpu_s", "s", median(cpus), n},
		{"setup_s", "s", median(setups), n},
	}
}

// atRefSpeed converts a host time measured in the repetition to seconds
// at the reference speed.
func (r rep) atRefSpeed(d time.Duration) float64 {
	return d.Seconds() * float64(refNominal) / float64(r.ref)
}

// perLayer reduces the traced run, its probes and the untraced
// repetitions to the per-layer metrics.
func perLayer(reps []rep, replays []replayRep, p probeResults, spans []span) []metric {
	var pointMS []float64
	var hostNS, l1 float64
	for _, rr := range replays {
		for _, ps := range rr.points {
			pointMS = append(pointMS, millis(ps.dur))
			hostNS += float64(ps.dur)
			l1 += float64(sumMetric(ps.res.Metrics, "p", ".l1.accesses"))
		}
	}
	// Simulated counts are exact and equal in every repetition; they
	// come from the first.
	var sim struct{ l1, cycles, l2, bus int64 }
	for _, ps := range replays[0].points {
		m := ps.res.Metrics
		sim.l1 += sumMetric(m, "p", ".l1.accesses")
		sim.l2 += sumMetric(m, "p", ".l2.misses")
		sim.bus += m.Get("bus.mem_fetches") + m.Get("bus.cache_to_cache") + m.Get("bus.upgrades") + m.Get("bus.writebacks")
		sim.cycles += ps.res.Cycles
	}
	merge := durationsMS(byName(spans, "experiments.MergePoints"))
	reps = succeeded(reps)
	var untraced, traced, rss, refs []float64
	for _, r := range reps {
		untraced = append(untraced, r.wall.Seconds())
		rss = append(rss, float64(r.use.rssKB)/1024)
		refs = append(refs, millis(r.ref))
	}
	for _, rr := range replays {
		traced = append(traced, rr.wall.Seconds())
	}
	shares := attributedShares(spans)
	lat := latencies(reps)
	return []metric{
		{"experiments.point_ms_p50", "ms", median(pointMS), len(pointMS)},
		{"experiments.point_ms_p90", "ms", quantile(pointMS, 0.9), len(pointMS)},
		{"experiments.prefix_build_ms", "ms", median(p.prefixBuild), len(p.prefixBuild)},
		{"experiments.merge_ms", "ms", median(merge), len(merge)},
		{"server.cache_get_ms", "ms", median(p.cacheGet), len(p.cacheGet)},
		{"fabric.rpc_ms_p50", "ms", median(p.rpc), len(p.rpc)},
		{"cascade.host_ns_per_l1_access", "ns", hostNS / l1, len(pointMS)},
		{"cascade.l1_accesses", "count", float64(sim.l1), len(replays[0].points)},
		{"cascade.cycles", "count", float64(sim.cycles), len(replays[0].points)},
		{"cache.l2_misses", "count", float64(sim.l2), len(replays[0].points)},
		{"coherence.bus_transactions", "count", float64(sim.bus), len(replays[0].points)},
		{"trace.attributed_share", "1", median(shares), len(shares)},
		{"trace.wall_ratio", "1", median(untraced) / median(traced), len(traced)},
		// Job latency is per-layer, not end-to-end: mixed-server's seeds
		// reorder its jobs, which moves latency by more than any bound.
		{"job_latency_p50_s", "s", median(lat), len(lat)},
		{"job_latency_p90_s", "s", quantile(lat, 0.9), len(lat)},
		// Peak RSS is per-layer too: when the Go collector runs decides
		// it, and its spread between runs reached 0.15-0.20.
		{"peak_rss_mb", "MiB", median(rss), len(rss)},
		{"host.ref_ms", "ms", median(refs), len(refs)},
	}
}

// pathMetrics are layer metrics that exist only on some paths (server
// queue and cache, fabric leases, journal and prefix reuse). They are
// printed with the report but are not in BENCHMARK.json, whose metrics
// every workload must report. The ones taken from spans need a traced
// run; spans is nil otherwise.
func pathMetrics(w workload, reps []rep, spans []span) []metric {
	reps = succeeded(reps)
	var out []metric
	if spans != nil && w.path != pathServer {
		// The server renders and stores inside its job worker, where the
		// replay has no span.
		render := durationsMS(byName(spans, "server.RenderJSON"))
		out = append(out, metric{"server.render_ms", "ms", median(render), len(render)})
	}
	if spans != nil && w.path == pathFleet {
		put := durationsMS(byName(spans, "server.Cache.Put"))
		app := durationsMS(byName(spans, "journal.Append"))
		out = append(out,
			metric{"server.cache_put_ms", "ms", median(put), len(put)},
			metric{"fabric.journal_append_ms", "ms", median(app), len(app)})
	}
	var queued, run, httpMS []float64
	for _, r := range reps {
		for _, o := range r.jobs {
			v := o.view
			if o.err != nil || v.Finished == nil {
				continue
			}
			life := v.Finished.Sub(v.Created)
			httpMS = append(httpMS, millis(o.latency-life))
			if v.Started != nil {
				queued = append(queued, millis(v.Started.Sub(v.Created)))
				run = append(run, millis(v.Finished.Sub(*v.Started)))
			}
		}
	}
	if w.path != pathCLI {
		out = append(out,
			metric{"server.queue_wait_ms_p50", "ms", median(queued), len(queued)},
			metric{"server.queue_wait_ms_p90", "ms", quantile(queued, 0.9), len(queued)},
			metric{"server.run_ms_p50", "ms", median(run), len(run)},
			metric{"server.http_ms_p50", "ms", median(httpMS), len(httpMS)})
	}
	var c struct{ submitted, hits, coalesced, assigned, batches, retried, prefixHits, prefixMisses int64 }
	var maxShare []float64
	for _, r := range reps {
		if m := r.scrape.coordinator; m != nil {
			c.assigned += m["fabric.points.assigned"]
			c.batches += m["fabric.batches.dispatched"]
			c.retried += m["fabric.points.retried"]
		}
		var exec, top int64
		for _, m := range r.scrape.workers {
			c.submitted += m["jobs.submitted"]
			c.hits += m["jobs.cache_hits"]
			c.coalesced += m["jobs.coalesced"]
			c.prefixHits += m["prefix.hits"]
			c.prefixMisses += m["prefix.misses"]
			exec += m["points.executed"]
			top = max(top, m["points.executed"])
		}
		if exec > 0 {
			maxShare = append(maxShare, float64(top)/float64(exec))
		}
	}
	switch w.path {
	case pathServer:
		var jobs int
		var wall time.Duration
		for _, r := range reps {
			jobs += len(r.jobs)
			wall += r.wall
		}
		out = append(out,
			metric{"jobs_per_s", "1/s", float64(jobs) / wall.Seconds(), len(reps)},
			metric{"server.cache_hit_ratio", "1", ratio(c.hits, c.submitted), len(reps)},
			metric{"server.coalesced_ratio", "1", ratio(c.coalesced, c.submitted), len(reps)})
	case pathFleet:
		out = append(out,
			metric{"experiments.prefix_hit_ratio", "1", ratio(c.prefixHits, c.prefixHits+c.prefixMisses), len(reps)},
			metric{"fabric.points_per_lease", "1", ratio(c.assigned, c.batches), len(reps)},
			metric{"fabric.worker_max_share", "1", median(maxShare), len(maxShare)},
			metric{"fabric.retried_ratio", "1", ratio(c.retried, c.assigned), len(reps)})
	}
	return out
}

func latencies(reps []rep) []float64 {
	var out []float64
	for _, r := range reps {
		for _, o := range r.jobs {
			out = append(out, o.latency.Seconds())
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sumMetric(m map[string]int64, prefix, suffix string) int64 {
	var s int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "    %-32s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}

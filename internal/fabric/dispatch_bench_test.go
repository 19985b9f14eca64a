package fabric

// Fleet dispatch benchmarks behind `make bench-fabric` (recorded runs
// live in BENCH_fabric.json):
//
//   BenchmarkPointDispatch  isolates per-point RPC overhead: a sweep of
//     near-zero-cost synthetic points through one serialized
//     coordinator→worker loop. ns/point ≈ R + P with P ~ 0, so it reads
//     as the fixed cost of one lease — the dispatch floor every shipped
//     point pays on top of its own simulation.
//
//   BenchmarkWarmFleetSweep  runs the prefix-heavy warmsweep experiment
//     (per point, the shared prefix — distribution + warm-up calls —
//     costs a multiple of the measured call) through a real coordinator
//     + worker pair. Each iteration boots a fresh fleet so no cache
//     answers points and the worker pays its prefix builds inside the
//     measurement.

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
)

// dispatchSeq keeps every benchmark job's params distinct so neither the
// coordinator's merged-result cache nor the worker's point cache can
// answer an iteration for free.
var dispatchSeq atomic.Int64

func BenchmarkPointDispatch(b *testing.B) {
	const pointsPerSweep = 32
	registerSweep("fab-bench-dispatch", pointsPerSweep, nil)
	url, stop := newWorker(b, "")
	defer stop()
	c, err := New(Config{
		Experiments: []experiments.Experiment{syntheticExperiment("fab-bench-dispatch")},
		MaxInflight: 1, // serialize so ns/point is not hidden by pipelining
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := server.JobParams{N: int(dispatchSeq.Add(1))}
		v, err := c.Submit("", "fab-bench-dispatch", p)
		if err != nil {
			b.Fatal(err)
		}
		awaitDone(b, c, v.ID)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pointsPerSweep), "ns/point")
}

func BenchmarkWarmFleetSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := server.New(server.Config{Workers: 4, Experiments: experiments.Registry()})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		c, err := New(Config{Experiments: experiments.Registry(), MaxInflight: 4})
		if err != nil {
			b.Fatal(err)
		}
		c.RegisterSlots("w", ts.URL, s.PointSlots())
		// A fractionally distinct scale per iteration keeps the point
		// keys unique without changing the workload measurably.
		p := server.JobParams{Scale: 0.01 + float64(dispatchSeq.Add(1))*1e-9}
		b.StartTimer()

		v, err := c.Submit("", "warmsweep", p)
		if err != nil {
			b.Fatal(err)
		}
		awaitDone(b, c, v.ID)

		b.StopTimer()
		c.Shutdown(context.Background())
		ts.Close()
		s.Shutdown(context.Background())
		b.StartTimer()
	}
}

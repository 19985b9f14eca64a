package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// Contention microbenchmarks for the serving stores: many goroutines on
// one cache and one server's submit path at once. Run with -cpu to vary
// the producer count, e.g.
//
//	go test -run NONE -bench BenchmarkCache -cpu 1,4,16 ./internal/server/
//
// They bound what one lock can serve; DESIGN.md §12 sets that against
// the traffic the benchmark workloads actually generate, which is far
// lower.

// benchCache builds a cache pre-populated with small entries under keys
// benchKey(0..n), disk-backed when dir != "".
func benchCache(b *testing.B, dir string, n int) *Cache {
	b.Helper()
	c, err := NewCache(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Put(benchKey(i), []byte(fmt.Sprintf(`{"point":%d}`, i))); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func benchKey(i int) string {
	return fmt.Sprintf("%02x-bench-key-%d", i%256, i)
}

// BenchmarkCacheGetParallel measures concurrent memory-hit lookups — the
// coordinator's per-point cache-index probe under fleet load.
func BenchmarkCacheGetParallel(b *testing.B) {
	const keys = 1024
	c := benchCache(b, "", keys)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Get(benchKey(i % keys)); !ok {
				b.Fail()
			}
			i++
		}
	})
}

// BenchmarkCacheMixedDiskParallel measures a disk-backed cache under a
// mixed load: mostly hits with a stream of fresh writes, each inside
// file I/O under the cache's lock.
func BenchmarkCacheMixedDiskParallel(b *testing.B) {
	const keys = 1024
	c := benchCache(b, b.TempDir(), keys)
	var fresh atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%16 == 15 {
				k := fresh.Add(1)
				c.Put(benchKey(keys+int(k)), []byte(`{"fresh":true}`))
			} else {
				c.Get(benchKey(i % keys))
			}
			i++
		}
	})
}

// BenchmarkCacheGetUnderDiskWrites measures reader throughput on
// memory-resident keys while a background writer continuously streams
// fresh entries through disk I/O, the worst case for one lock: a read
// that arrives during a write waits for the writer's time inside the
// filesystem.
func BenchmarkCacheGetUnderDiskWrites(b *testing.B) {
	const keys = 1024
	c := benchCache(b, b.TempDir(), keys)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var writes atomic.Int64
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Put(benchKey(keys+i), []byte(`{"background":true}`))
				writes.Add(1)
			}
		}
	}()
	b.ReportAllocs()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(benchKey(i % keys))
			i++
		}
	})
	b.StopTimer()
	elapsed := time.Since(start)
	close(stop)
	<-writerDone
	// How much progress the writer made while readers hammered the
	// cache: the writer competes with every reader for the one lock.
	b.ReportMetric(float64(writes.Load())/elapsed.Seconds(), "writes/s")
}

// BenchmarkSubmitCacheHit measures the server queue mutex (s.mu, which
// also guards the single-flight map) on the hottest short path: a
// submission answered from the cache. Every call takes s.mu twice
// (submit bookkeeping + finish), so this bounds how fast one server can
// answer memoized fleet traffic.
func BenchmarkSubmitCacheHit(b *testing.B) {
	s, err := New(Config{
		Workers:     1,
		Experiments: []experiments.Experiment{echoExperiment("echo")},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	v, err := s.Submit("echo", JobParams{N: 7})
	if err != nil {
		b.Fatal(err)
	}
	if r, _ := s.Await(v.ID, 5*time.Second, nil); r.State != StateDone {
		b.Fatalf("warm job state %s", r.State)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Submit("echo", JobParams{N: 7}); err != nil {
				b.Fail()
			}
		}
	})
}

package metrics

import (
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

// TestSyncedConcurrentCounters pins the whole point of Synced: many
// goroutines hammering the same counters race-free (run under -race) and
// no increment is lost.
func TestSyncedConcurrentCounters(t *testing.T) {
	s := NewSynced()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Inc("jobs.submitted")
				s.Add("cache.hits", 2)
				s.Set("queue.depth", int64(g))
				s.Max("queue.peak", int64(i))
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if got := snap.Get("jobs.submitted"); got != goroutines*perG {
		t.Errorf("jobs.submitted = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Get("cache.hits"); got != 2*goroutines*perG {
		t.Errorf("cache.hits = %d, want %d", got, 2*goroutines*perG)
	}
	if got := snap.Get("queue.peak"); got != perG-1 {
		t.Errorf("queue.peak = %d, want %d", got, perG-1)
	}
}

// TestSyncedWithAndReset exercises the escape hatch and the reset path.
func TestSyncedWithAndReset(t *testing.T) {
	s := NewSynced()
	s.With(func(r *Registry) {
		r.PhaseTimer("jobs.time", "queued", "run").Add(0, "run", 42)
	})
	if got := s.Value("jobs.time.total.run"); got != 42 {
		t.Errorf("jobs.time.total.run = %d, want 42", got)
	}
	s.Inc("n")
	s.ResetStats()
	if !s.Snapshot().AllZero() {
		t.Errorf("after ResetStats, snapshot not all zero: %v", s.Snapshot().NonZero())
	}
}

// TestSyncedShardedDifferential (named for the lock striping Synced once
// had) is the wrapper's contract: a single-goroutine operation sequence
// applied to both Synced and a plain Registry must yield identical
// snapshots at every probe point — the wrapper must never be observable.
func TestSyncedShardedDifferential(t *testing.T) {
	s := NewSynced()
	r := NewRegistry()
	check := func(step string) {
		t.Helper()
		got, want := s.Snapshot(), r.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: synced snapshot diverges\nsynced %v\nplain  %v", step, got, want)
		}
	}
	rng := rand.New(rand.NewSource(42))
	counters := []string{"jobs.submitted", "jobs.completed", "cache.hits", "cache.bytes"}
	gauges := []string{"queue.depth", "queue.depth_peak"}
	for i := 0; i < 400; i++ {
		switch rng.Intn(5) {
		case 0:
			n := counters[rng.Intn(len(counters))]
			s.Inc(n)
			r.Counter(n).Inc()
		case 1:
			n, d := counters[rng.Intn(len(counters))], int64(rng.Intn(100))
			s.Add(n, d)
			r.Counter(n).Add(d)
		case 2:
			n, v := gauges[rng.Intn(len(gauges))], int64(rng.Intn(50))
			s.Set(n, v)
			r.Gauge(n).Set(v)
		case 3:
			n, v := gauges[rng.Intn(len(gauges))], int64(rng.Intn(200))
			s.Max(n, v)
			r.Gauge(n).Max(v)
		case 4:
			if rng.Intn(8) == 0 {
				s.ResetStats()
				r.ResetStats()
			}
		}
		if i%37 == 0 {
			check("op " + strconv.Itoa(i))
		}
	}
	check("final")
	for _, n := range counters {
		if s.Value(n) != r.Snapshot().Get(n) {
			t.Errorf("Value(%s) = %d, plain %d", n, s.Value(n), r.Snapshot().Get(n))
		}
	}
}

// TestSyncedSnapshotAtomicCut: Snapshot is one point-in-time cut under
// the lock, so scrapes taken while writers keep bumping a counter never
// see it go backwards, and the final value is at least the last one
// observed.
func TestSyncedSnapshotAtomicCut(t *testing.T) {
	s := NewSynced()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Inc("a")
				}
			}
		}()
	}
	last := int64(-1)
	for i := 0; i < 200; i++ {
		v := s.Snapshot().Get("a")
		if v < last {
			t.Fatalf("counter went backwards across snapshots: %d then %d", last, v)
		}
		last = v
	}
	close(stop)
	wg.Wait()
	if final := s.Value("a"); final < last {
		t.Errorf("final value %d below last observed snapshot %d", final, last)
	}
}

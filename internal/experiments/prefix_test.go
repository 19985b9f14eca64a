package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// warmOverWire runs every point of a decomposed experiment through the
// warm path — PrefixCache fetch, then RunWarm — with the fabric's JSON
// round-trip on both spec and result, then merges. Points of an
// experiment without a warm path run cold, as a worker runs them. The byte comparison
// against a cold driver is the warm fleet's core guarantee:
// prefix reuse is a wall-clock optimization, never an observable one.
func warmOverWire(t *testing.T, ctx context.Context, c *PrefixCache, name string, rc RunConfig) Renderable {
	t.Helper()
	specs, ok := Decompose(name, rc)
	if !ok {
		t.Fatalf("experiment %q not decomposable", name)
	}
	results := make([]PointResult, len(specs))
	if err := runIndices(ctx, len(specs), func(i int) error {
		sb, err := json.Marshal(specs[i])
		if err != nil {
			return err
		}
		var spec PointSpec
		if err := json.Unmarshal(sb, &spec); err != nil {
			return err
		}
		r, warm, err := c.RunPoint(ctx, spec)
		if err != nil {
			return err
		}
		if !warm {
			if _, ok := prefixOf(spec); ok {
				t.Errorf("%s point %d took the cold path", name, i)
			}
			r, err = RunPoint(ctx, spec)
			if err != nil {
				return err
			}
		}
		rb, err := json.Marshal(r)
		if err != nil {
			return err
		}
		var wire PointResult
		if err := json.Unmarshal(rb, &wire); err != nil {
			return err
		}
		results[i] = wire
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Merge in reversed order to prove MergePoints' index sort.
	for i, j := 0, len(results)-1; i < j; i, j = i+1, j-1 {
		results[i], results[j] = results[j], results[i]
	}
	merged, err := MergePoints(name, rc, results)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestWarmsweepDecomposedMatchesDriver pins three-way identity for the
// most prefix-heavy sweep in the registry: a snapshot-free per-point
// driver (freshWarmsweep), the cold decomposed path (each point builds a
// private prefix), and the warm path (every point forked off one cached
// prefix per machine) must render byte-identical results.
func TestWarmsweepDecomposedMatchesDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02

	want := renderIndented(t, freshWarmsweep(t, rc))

	specs, _ := Decompose("warmsweep", rc)
	results := make([]PointResult, len(specs))
	for i, ps := range specs {
		var err error
		if results[i], err = RunPoint(ctx, ps); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := MergePoints("warmsweep", rc, results)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderIndented(t, cold); !bytes.Equal(got, want) {
		t.Errorf("cold decomposed warmsweep differs from driver:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	c := NewPrefixCache(0)
	warm := warmOverWire(t, ctx, c, "warmsweep", rc)
	if got := renderIndented(t, warm); !bytes.Equal(got, want) {
		t.Errorf("warm decomposed warmsweep differs from driver:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// One prefix per machine, every other point a snapshot hit.
	stats := c.Stats()
	if want := len(Machines()); stats.Misses != int64(want) || stats.Entries != want {
		t.Errorf("cache builds = %d misses / %d entries, want %d of each", stats.Misses, stats.Entries, want)
	}
	if want := int64(len(specs) - len(Machines())); stats.Hits != want {
		t.Errorf("cache hits = %d, want %d", stats.Hits, want)
	}
	if stats.Bytes <= 0 || stats.Bytes > stats.MaxBytes {
		t.Errorf("cache accounting out of range: %d bytes of %d", stats.Bytes, stats.MaxBytes)
	}
}

// TestWarmPointMatchesColdParmvr pins per-point warm/cold identity for
// the fig2 and fig6 decompositions: a point run off a cached prefix
// serializes to exactly the bytes the cold path produces.
func TestWarmPointMatchesColdParmvr(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02
	c := NewPrefixCache(0)
	for _, name := range []string{"fig2", "fig6"} {
		specs, ok := Decompose(name, rc)
		if !ok {
			t.Fatalf("experiment %q not decomposable", name)
		}
		// The sequential baseline plus the first two sweep points: every
		// strategy class crosses the fork boundary.
		for _, i := range []int{0, len(Machines()), len(Machines()) + 1} {
			cold, err := RunPoint(ctx, specs[i])
			if err != nil {
				t.Fatal(err)
			}
			warm, ok, err := c.RunPoint(ctx, specs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s point %d has no warm path", name, i)
			}
			if got, want := renderIndented(t, warm), renderIndented(t, cold); !bytes.Equal(got, want) {
				t.Errorf("%s point %d warm result differs from cold:\n got %s\nwant %s", name, i, got, want)
			}
		}
	}
	if stats := c.Stats(); stats.Hits == 0 {
		t.Error("no prefix reuse across points sharing a prefix")
	}
}

// TestPrefixCacheSingleFlight pins that concurrent points sharing one
// prefix build it exactly once, and that a state evicted while points
// still hold it stays usable (captures are immutable).
func TestPrefixCacheSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02
	specs, _ := Decompose("fig6", rc)
	spec := specs[len(Machines())] // first sweep point

	c := NewPrefixCache(0)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, ok, err := c.RunPoint(ctx, spec)
			if err == nil && !ok {
				errs[g] = context.Canceled // sentinel: unexpected cold path
				return
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if stats := c.Stats(); stats.Misses != 1 || stats.Hits != 3 {
		t.Errorf("single-flight broken: %d misses, %d hits, want 1 and 3", stats.Misses, stats.Hits)
	}
}

// TestPrefixCacheEviction pins the byte ceiling: a cache far too small
// for two prefixes keeps only the most recent one, counts the eviction,
// and still returns correct results for every request.
func TestPrefixCacheEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02
	specs, _ := Decompose("fig6", rc)
	if len(Machines()) < 2 {
		t.Skip("needs two machine presets")
	}
	// The two machines' sequential baselines: distinct prefixes.
	a, b := specs[0], specs[1]

	c := NewPrefixCache(1) // 1 byte: nothing fits, LRU always at ceiling
	coldA, err := RunPoint(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	warmA, _, err := c.RunPoint(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunPoint(ctx, b); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.Entries != 1 || stats.Evictions == 0 {
		t.Errorf("eviction did not hold the ceiling: %d entries, %d evictions", stats.Entries, stats.Evictions)
	}
	// A's state was evicted; re-requesting rebuilds it and the result is
	// still byte-identical to the cold path.
	warmA2, _, err := c.RunPoint(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	wantA := renderIndented(t, coldA)
	if got := renderIndented(t, warmA); !bytes.Equal(got, wantA) {
		t.Error("pre-eviction warm result differs from cold")
	}
	if got := renderIndented(t, warmA2); !bytes.Equal(got, wantA) {
		t.Error("post-eviction rebuilt result differs from cold")
	}
	if s := c.Stats(); s.Misses != 3 {
		t.Errorf("rebuild accounting: %d misses, want 3", s.Misses)
	}
}

// TestPrefixCacheLeaderCancelled pins that a single-flight build belongs
// to no one caller: the caller that started it is cancelled mid-build and
// returns its own context error, while a follower with a live context
// receives the finished state, and the prefix is built exactly once.
func TestPrefixCacheLeaderCancelled(t *testing.T) {
	c := NewPrefixCache(0)
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	c.build = func(ctx context.Context, spec PrefixSpec) (*PrefixState, error) {
		builds.Add(1)
		close(started)
		<-release
		// A build that honours its context, as BuildPrefix does, fails
		// here if it inherited the cancelled leader's.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &PrefixState{Spec: spec, mem: 1}, nil
	}
	spec := PrefixSpec{Machine: Machines()[0].Name, Procs: 2, Scale: 0.01}

	leaderCtx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := c.state(leaderCtx, spec)
		leader <- err
	}()
	<-started
	type outcome struct {
		st  *PrefixState
		err error
	}
	follower := make(chan outcome, 1)
	go func() {
		st, err := c.state(context.Background(), spec)
		follower <- outcome{st, err}
	}()
	for c.Stats().Hits == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	close(release)
	got := <-follower
	if got.err != nil || got.st == nil {
		t.Fatalf("follower got state %v, err %v; want the built state", got.st, got.err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 || s.Entries != 1 || s.Bytes != 1 {
		t.Errorf("stats %+v, want 1 miss, 1 hit, 1 entry of 1 byte", s)
	}
	// The finished state serves later callers without a rebuild.
	if st, err := c.state(context.Background(), spec); err != nil || st != got.st {
		t.Errorf("later caller got %v, %v; want the cached state", st, err)
	}
}

// TestPrefixBytesCountCaptures pins a cold-call prefix's accounting: its
// MemBytes is the sum of its per-loop captures, which hold only valid
// lines, so it stays below one dense copy of the machine's cache arrays
// per loop.
func TestPrefixBytesCountCaptures(t *testing.T) {
	st, err := BuildPrefix(context.Background(), PrefixSpec{Machine: Machines()[0].Name, Procs: 4, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range st.starts {
		sum += c.MemBytes()
	}
	if len(st.starts) == 0 || st.MemBytes() != sum || sum <= 0 {
		t.Fatalf("MemBytes %d, captures %d over %d loops", st.MemBytes(), sum, len(st.starts))
	}
	// A dense copy holds one 24-byte record per L1 and L2 slot and TLB
	// entry of every processor.
	cfg := st.cfg
	dense := int64(cfg.Procs*(cfg.L1.NumLines()+cfg.L2.NumLines()+cfg.TLB.Entries)) * 24 * int64(len(st.starts))
	if sum >= dense {
		t.Errorf("captures hold %d bytes, dense per-loop copies %d", sum, dense)
	}
}

package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/wave5"
)

// warmTestScale shrinks the dataset so the differential finishes fast
// while every loop still has several chunks.
const warmTestScale = 0.02

func warmTestParams() wave5.Params {
	return wave5.DefaultParams().Scaled(warmTestScale)
}

// runWarmPointFresh measures a point the expensive way: a fresh machine
// runs the whole prefix (distribution + sequential warm-up calls) itself
// and then the point's steady-state call. This is the ground truth the
// warm sweep's forked rows must match bit for bit.
func runWarmPointFresh(t *testing.T, cfg machine.Config, p wave5.Params, warmupCalls int, pt WarmPoint) []cascade.Result {
	t.Helper()
	results, _, err := freshWarmPoint(cfg, p, warmupCalls, pt, false)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// freshWarmPoint is runWarmPointFresh, also returning how many machine
// components the measured call never accessed when mark is set. The
// machine runs the prefix itself; with mark, right before the measured
// call it reloads a capture of its own caches, which leaves their
// contents as they stand and only marks every component untouched, so
// that UntouchedComponents reports what the call accessed, which is what
// a warm point's Shared count reports.
func freshWarmPoint(cfg machine.Config, p wave5.Params, warmupCalls int, pt WarmPoint, mark bool) ([]cascade.Result, int, error) {
	w, err := wave5.Build(p)
	if err != nil {
		return nil, 0, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := runWarmPrefix(context.Background(), m, w, warmupCalls); err != nil {
		return nil, 0, err
	}
	if mark {
		c, err := m.Capture()
		if err != nil {
			return nil, 0, err
		}
		if err := m.LoadCapture(c); err != nil {
			return nil, 0, err
		}
	}
	results, err := runWarmPoint(m, w, pt)
	return results, len(m.UntouchedComponents()), err
}

// freshWarmsweep is the warmsweep reference driver: every point of the
// decomposition measured by freshWarmPoint — no shared prefix, no space
// checkpoint — and merged by the decomposition's own Merge.
func freshWarmsweep(t *testing.T, rc RunConfig) Renderable {
	t.Helper()
	specs, _ := Decompose("warmsweep", rc)
	results := make([]PointResult, len(specs))
	if err := runIndices(context.Background(), len(specs), func(i int) error {
		ps := specs[i]
		cfg, err := machineByName(ps.Machine)
		if err != nil {
			return err
		}
		strat, err := ParseStrategy(ps.Strategy)
		if err != nil {
			return err
		}
		rr, shared, err := freshWarmPoint(cfg.WithProcs(ps.Procs), rc.Params(), ps.Warmup,
			WarmPoint{Strat: strat, ChunkBytes: ps.ChunkBytes}, true)
		if err != nil {
			return err
		}
		results[i] = PointResult{Index: i, Cycles: TotalCycles(rr), Metrics: MergeMetrics(rr), Shared: shared}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	merged, err := MergePoints("warmsweep", rc, results)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// warmSpec is the warmsweep point spec of pt on cfg.
func warmSpec(index int, cfg machine.Config, scale float64, warmupCalls int, pt WarmPoint) PointSpec {
	return PointSpec{
		Experiment: "warmsweep", Index: index, Machine: cfg.Name, Procs: cfg.Procs,
		Strategy: pt.Strat.Token(), ChunkBytes: pt.ChunkBytes, Scale: scale, Warmup: warmupCalls,
	}
}

// buildWarmPrefix builds the warm prefix the points of warmSpec(_, cfg,
// scale, warmupCalls, _) share.
func buildWarmPrefix(tb testing.TB, cfg machine.Config, scale float64, warmupCalls int) *PrefixState {
	tb.Helper()
	spec, _ := warmsweepPrefix(warmSpec(0, cfg, scale, warmupCalls, WarmPoint{}))
	st, err := BuildPrefix(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestWarmSweepBitIdentical is the sweep-level differential: every point
// forked off one built warm prefix equals a fresh machine running the
// same prefix and point from scratch — cycles and full metrics snapshot.
func TestWarmSweepBitIdentical(t *testing.T) {
	cfg := machine.PentiumPro(3)
	p := warmTestParams()
	points := DefaultWarmPoints(16 * 1024)

	st := buildWarmPrefix(t, cfg, warmTestScale, 1)
	if key, err := PrefixKey(cfg, p, 1); err != nil || st.Key != key {
		t.Errorf("prefix key %q, PrefixKey %q (%v)", st.Key, key, err)
	}
	for i, pt := range points {
		row, err := warmsweepRunWarm(context.Background(), st, warmSpec(i, cfg, warmTestScale, 1, pt))
		if err != nil {
			t.Fatal(err)
		}
		fresh := runWarmPointFresh(t, cfg, p, 1, pt)
		if got, want := row.Cycles, TotalCycles(fresh); got != want {
			t.Errorf("point %+v: warm cycles %d != fresh %d", pt, got, want)
		}
		if !reflect.DeepEqual(row.Metrics, MergeMetrics(fresh)) {
			t.Errorf("point %+v: warm metrics differ from fresh", pt)
		}
	}
}

// TestWarmPointsConcurrent pins that warm points need no lock: every
// warmsweep point of one PrefixState, run from four goroutines at once
// (each over all points, in rotated orders), serializes to exactly the
// bytes a serial run of the same points produces. Kept cheap enough for
// the -short race run.
func TestWarmPointsConcurrent(t *testing.T) {
	const scale, goroutines = 0.01, 4
	ctx := context.Background()
	cfg := Machines()[0]
	points := DefaultWarmPoints(DefaultRunConfig().ChunkBytes)
	st := buildWarmPrefix(t, cfg, scale, DefaultWarmupCalls)

	want := make([][]byte, len(points))
	for i, pt := range points {
		r, err := warmsweepRunWarm(ctx, st, warmSpec(i, cfg, scale, DefaultWarmupCalls, pt))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}

	got := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([][]byte, len(points))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range points {
				i := (k + g) % len(points)
				r, err := warmsweepRunWarm(ctx, st, warmSpec(i, cfg, scale, DefaultWarmupCalls, points[i]))
				if err == nil {
					got[g][i], err = json.Marshal(r)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range points {
			if !bytes.Equal(got[g][i], want[i]) {
				t.Errorf("goroutine %d, point %d: concurrent result differs from serial", g, i)
			}
		}
	}
}

// TestPrefixKeyDiscriminates pins the content-address semantics: the key
// is stable for equal inputs and distinct when the machine, dataset, or
// warm-up count changes.
func TestPrefixKeyDiscriminates(t *testing.T) {
	cfg := machine.PentiumPro(4)
	p := warmTestParams()
	k1, err := PrefixKey(cfg, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := PrefixKey(cfg, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("prefix key not stable")
	}
	for name, alt := range map[string]func() (string, error){
		"procs":  func() (string, error) { return PrefixKey(cfg.WithProcs(2), p, 2) },
		"scale":  func() (string, error) { return PrefixKey(cfg, wave5.DefaultParams().Scaled(0.04), 2) },
		"warmup": func() (string, error) { return PrefixKey(cfg, p, 3) },
	} {
		k, err := alt()
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Errorf("prefix key ignores %s", name)
		}
	}
	// The Parallel knob changes simulation scheduling on the host only,
	// so it must not split the prefix key, whatever its value.
	for _, mode := range []machine.Parallel{machine.ParallelOn, machine.ParallelOff} {
		k, err := PrefixKey(cfg.WithParallel(mode), p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if k != k1 {
			t.Errorf("prefix key with Parallel %s differs from the default", mode)
		}
	}
}

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

// freshWarmPoint measures a point the expensive way: a fresh machine
// runs the whole prefix (distribution + sequential warm-up calls) itself
// and then the point's steady-state call. This is the ground truth the
// warm sweep's rows must match bit for bit. With mark it also returns
// how many machine components the measured call never accessed: right
// before the measured call the machine reloads a capture of its own
// caches, which leaves their contents as they stand and only marks every
// component untouched, so that UntouchedComponents reports what the call
// accessed, which is what a warm point's Shared count reports.
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
// decomposition measured by freshWarmPoint on engine — no shared prefix,
// no space checkpoint — and merged by the decomposition's own Merge.
func freshWarmsweep(t *testing.T, rc RunConfig, engine machine.Engine) Renderable {
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
		rr, shared, err := freshWarmPoint(cfg.WithProcs(ps.Procs).WithEngine(engine), rc.Params(), ps.Warmup,
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
// off one built warm prefix equals a fresh machine running the same
// prefix and point from scratch — cycles, full metrics snapshot and
// shared-component count — after one warm-up call and after the default
// two. With two, the prefix is steady, so the Sequential point is
// answered from the prefix's record of its last warm-up call.
func TestWarmSweepBitIdentical(t *testing.T) {
	cfg := machine.PentiumPro(3)
	p := warmTestParams()
	points := DefaultWarmPoints(16 * 1024)

	for _, warmup := range []int{1, DefaultWarmupCalls} {
		st := buildWarmPrefix(t, cfg, warmTestScale, warmup)
		if key, err := PrefixKey(cfg, p, warmup); err != nil || st.Key != key {
			t.Errorf("warmup %d: prefix key %q, PrefixKey %q (%v)", warmup, st.Key, key, err)
		}
		if got, want := st.seq != nil, warmup >= 2; got != want {
			t.Errorf("warmup %d: steady-state record stored %v, want %v", warmup, got, want)
		}
		for i, pt := range points {
			row, err := runWarmsweepPoint(context.Background(), st, warmSpec(i, cfg, warmTestScale, warmup, pt))
			if err != nil {
				t.Fatal(err)
			}
			fresh, shared, err := freshWarmPoint(cfg, p, warmup, pt, true)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := row.Cycles, TotalCycles(fresh); got != want {
				t.Errorf("warmup %d, point %+v: warm cycles %d != fresh %d", warmup, pt, got, want)
			}
			if !reflect.DeepEqual(row.Metrics, MergeMetrics(fresh)) {
				t.Errorf("warmup %d, point %+v: warm metrics differ from fresh", warmup, pt)
			}
			if row.Shared != shared || row.Index != i {
				t.Errorf("warmup %d, point %+v: shared %d index %d, fresh shared %d index %d", warmup, pt, row.Shared, row.Index, shared, i)
			}
		}
	}
}

// TestWarmPrefixSteadyRecord pins the steady-state record of a warm
// prefix. On both presets at scale 0.01, the default two warm-up calls
// reach steady state, so the prefix stores the Sequential point's result
// and counts it in MemBytes; its capture is byte for byte the one the
// warm-up calls leave when run straight through; and a Sequential point
// gets its own copy of the record, equal to a fork's measurement.
// (TestWarmSweepBitIdentical checks that one warm-up call stores none.)
func TestWarmPrefixSteadyRecord(t *testing.T) {
	const scale = 0.01
	ctx := context.Background()
	for _, cfg := range Machines() {
		st := buildWarmPrefix(t, cfg, scale, DefaultWarmupCalls)
		if st.seq == nil {
			t.Fatalf("%s: no steady-state record after %d warm-up calls", cfg.Name, DefaultWarmupCalls)
		}
		w, err := wave5.Build(wave5.DefaultParams().Scaled(scale))
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := runWarmPrefix(ctx, m, w, DefaultWarmupCalls); err != nil {
			t.Fatal(err)
		}
		if c, err := m.Capture(); err != nil || !reflect.DeepEqual(c, st.warm) {
			t.Errorf("%s: prefix capture differs from the warm-up calls run straight through (%v)", cfg.Name, err)
		}
		want := st.warm.MemBytes() + st.seq.memBytes()
		for _, a := range w.Space.Arrays() {
			want += int64(a.SizeBytes())
		}
		if st.MemBytes() != want {
			t.Errorf("%s: MemBytes %d, want capture, space and record %d", cfg.Name, st.MemBytes(), want)
		}
		bare := &PrefixState{Spec: st.Spec, Key: st.Key, cfg: st.cfg, p: st.p, warm: st.warm, ck: st.ck}
		spec := warmSpec(7, cfg, scale, DefaultWarmupCalls, WarmPoint{Strat: Sequential})
		got, err := runWarmsweepPoint(ctx, st, spec)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := runWarmsweepPoint(ctx, bare, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, forked) || got.Index != 7 {
			t.Errorf("%s: recorded Sequential point %+v, forked %+v", cfg.Name, got, forked)
		}
		got.Metrics["scribble"] = 1
		if _, ok := st.seq.Metrics["scribble"]; ok {
			t.Errorf("%s: a returned point shares its metrics with the record", cfg.Name)
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
		r, err := runWarmsweepPoint(ctx, st, warmSpec(i, cfg, scale, DefaultWarmupCalls, pt))
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
				r, err := runWarmsweepPoint(ctx, st, warmSpec(i, cfg, scale, DefaultWarmupCalls, points[i]))
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
}

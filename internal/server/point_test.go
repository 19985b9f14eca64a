package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
)

// registerSyntheticSweep installs a cheap decomposition under name whose
// points cost nothing to run, so fabric-surface tests never pay for a
// paper-scale simulation. Run executes fn per point (nil = a fixed
// arithmetic result derived from the spec).
func registerSyntheticSweep(name string, points int, fn func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error)) {
	if fn == nil {
		fn = func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
			return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
		}
	}
	experiments.RegisterDecomposition(name, experiments.Decomposition{
		Points: func(rc experiments.RunConfig) []experiments.PointSpec {
			specs := make([]experiments.PointSpec, points)
			for i := range specs {
				specs[i] = experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: name, Index: i, N: rc.N}
			}
			return specs
		},
		Run: func(ctx context.Context, _ *experiments.PrefixState, ps experiments.PointSpec) (experiments.PointResult, error) {
			return fn(ctx, ps)
		},
		Merge: func(rc experiments.RunConfig, rs []experiments.PointResult) (experiments.Renderable, error) {
			var total int64
			for _, r := range rs {
				total += r.Cycles
			}
			return fakeResult{Value: fmt.Sprintf("total=%d", total)}, nil
		},
	})
}

// postPoint ships one spec to a server's point endpoint and decodes the
// envelope. key == "derive" computes the correct key; "" omits it.
func postPoint(t *testing.T, url string, key string, spec experiments.PointSpec) (int, Envelope) {
	t.Helper()
	if key == "derive" {
		k, err := canon.PointKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		key = k
	}
	body, err := json.Marshal(map[string]interface{}{"key": key, "point": spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding point envelope: %v", err)
	}
	return resp.StatusCode, env
}

// TestPointEndpoint pins the worker surface's happy path: a shipped
// point executes and returns its result; resubmitting the identical
// point answers from the cache with "cached": true — the observable
// signal cross-node hit accounting is built on.
func TestPointEndpoint(t *testing.T) {
	registerSyntheticSweep("pt-basic", 4, nil)
	s, err := New(Config{Workers: 2, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-basic", Index: 2, N: 10}
	status, env := postPoint(t, ts.URL, "derive", spec)
	if status != http.StatusOK || env.Point == nil {
		t.Fatalf("point run: status %d, envelope %+v", status, env)
	}
	if env.Cached {
		t.Error("fresh point claims cached")
	}
	if want := int64(1000 + 2*7 + 10); env.Point.Cycles != want || env.Point.Index != 2 {
		t.Errorf("point result = %+v, want cycles %d index 2", env.Point, want)
	}

	status, env = postPoint(t, ts.URL, "derive", spec)
	if status != http.StatusOK || env.Point == nil || !env.Cached {
		t.Fatalf("cached rerun: status %d, cached %v", status, env.Cached)
	}
	if env.Point.Cycles != 1000+2*7+10 {
		t.Errorf("cached result drifted: %+v", env.Point)
	}

	// Omitting the key is allowed: the worker derives it itself.
	status, env = postPoint(t, ts.URL, "", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-basic", Index: 1, N: 10})
	if status != http.StatusOK || env.Point == nil || env.Point.Index != 1 {
		t.Fatalf("keyless point: status %d, envelope %+v", status, env)
	}

	m := s.Metrics()
	if got := m.Get(mPointsExecuted); got != 2 {
		t.Errorf("points.executed = %d, want 2", got)
	}
	if got := m.Get(mPointsCacheHits); got != 1 {
		t.Errorf("points.cache_hits = %d, want 1", got)
	}
}

// TestPointEndpointRejections pins every refusal: a key that disagrees
// with the spec, an unknown experiment, a missing spec, and the legacy
// wire format — none of which may reach execution.
func TestPointEndpointRejections(t *testing.T) {
	registerSyntheticSweep("pt-reject", 2, nil)
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-reject", Index: 0}
	status, env := postPoint(t, ts.URL, "deadbeef", spec)
	if status != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest {
		t.Errorf("key mismatch: status %d, error %+v", status, env.Error)
	}
	if got := s.Metrics().Get(mPointsKeyMismatch); got != 1 {
		t.Errorf("points.key_mismatch = %d, want 1", got)
	}

	status, env = postPoint(t, ts.URL, "", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "no-such-sweep"})
	if status != http.StatusNotFound || env.Error == nil || env.Error.Code != CodeNotFound {
		t.Errorf("unknown experiment: status %d, error %+v", status, env.Error)
	}

	resp, err := http.Post(ts.URL+"/v1/points", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing spec: status %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/points", bytes.NewReader([]byte(`{}`)))
	req.Header.Set(VersionHeader, legacyAPIVersion)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("legacy version: status %d, want 400", resp.StatusCode)
	}

	if got := s.Metrics().Get(mPointsExecuted); got != 0 {
		t.Errorf("a refused request executed: points.executed = %d", got)
	}
}

// TestPointEndpointPanicContained pins panic containment: a point whose
// execution panics fails that one request with a typed panic error and
// leaves the worker serving.
func TestPointEndpointPanicContained(t *testing.T) {
	registerSyntheticSweep("pt-panic", 2, func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		if ps.Index == 0 {
			panic("poisoned point")
		}
		return experiments.PointResult{Index: ps.Index, Cycles: 42}, nil
	})
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, env := postPoint(t, ts.URL, "", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-panic", Index: 0})
	if status != http.StatusInternalServerError || env.Error == nil || env.Error.Code != CodePanic {
		t.Fatalf("panicking point: status %d, error %+v", status, env.Error)
	}
	status, env = postPoint(t, ts.URL, "", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-panic", Index: 1})
	if status != http.StatusOK || env.Point == nil || env.Point.Cycles != 42 {
		t.Fatalf("worker did not survive the panic: status %d, envelope %+v", status, env)
	}
	if got := s.Metrics().Get(mPointsFailed); got != 1 {
		t.Errorf("points.failed = %d, want 1", got)
	}
}

// TestPointEndpointShedsLoad pins bounded admission: with one execution
// slot and one wait slot, a third concurrent point is refused with 503
// queue_full, and a drained server refuses with 503 shutting_down.
func TestPointEndpointShedsLoad(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	registerSyntheticSweep("pt-shed", 2, func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		running <- struct{}{}
		select {
		case <-gate:
			return experiments.PointResult{Index: ps.Index, Cycles: 1}, nil
		case <-ctx.Done():
			return experiments.PointResult{}, ctx.Err()
		}
	})
	s, err := New(Config{Workers: 1, QueueDepth: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	results := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct N keeps the two points from answering each other
			// through the cache.
			status, _ := postPoint(t, ts.URL, "", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-shed", Index: 0, N: i})
			results[i] = status
		}(i)
	}
	<-running // the first point holds the execution slot
	// Wait for the second request to occupy the wait slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.pointAdmitted.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second point never reached admission")
		}
		time.Sleep(time.Millisecond)
	}

	status, env := postPoint(t, ts.URL, "", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-shed", Index: 1, N: 99})
	if status != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != CodeQueueFull {
		t.Errorf("saturated worker: status %d, error %+v, want 503 queue_full", status, env.Error)
	}
	if got := s.Metrics().Get(mPointsRejected); got != 1 {
		t.Errorf("points.rejected = %d, want 1", got)
	}

	close(gate)
	wg.Wait()
	for i, st := range results {
		if st != http.StatusOK {
			t.Errorf("admitted point %d finished with status %d", i, st)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, env = postPoint(t, ts.URL, "", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-shed", Index: 0, N: 1000})
	if status != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != CodeShuttingDown {
		t.Errorf("draining worker: status %d, error %+v, want 503 shutting_down", status, env.Error)
	}
}

// TestPointCutShortByShutdown pins how a worker answers a point its own
// drain interrupts: Shutdown cancels the run context once local jobs
// drain, while the point's handler is still in flight, and the point
// must come back 503 shutting_down — retryable on another worker — not
// the terminal cancelled a coordinator would fail the whole job on.
func TestPointCutShortByShutdown(t *testing.T) {
	entered := make(chan struct{})
	registerSyntheticSweep("pt-drain", 1, func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		close(entered)
		<-ctx.Done()
		return experiments.PointResult{}, ctx.Err()
	})
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type reply struct {
		status int
		env    Envelope
	}
	done := make(chan reply, 1)
	go func() {
		status, env := postPoint(t, ts.URL, "derive", experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: "pt-drain", N: 1})
		done <- reply{status, env}
	}()
	<-entered
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.status != http.StatusServiceUnavailable || r.env.Error == nil || r.env.Error.Code != CodeShuttingDown {
		t.Fatalf("point cut short by shutdown: status %d, envelope %+v; want 503 shutting_down", r.status, r.env)
	}
}

// invalidPointSpecs returns a valid cascaded fig6 spec and the five
// out-of-range variants a worker must refuse before taking a slot.
func invalidPointSpecs(t testing.TB) (experiments.PointSpec, map[string]experiments.PointSpec) {
	t.Helper()
	specs, _ := experiments.Decompose("fig6", JobParams{Scale: 0.01}.WithDefaults().RunConfig())
	good := specs[len(specs)-1]
	bad := map[string]experiments.PointSpec{}
	for name, edit := range map[string]func(*experiments.PointSpec){
		"procs 0":        func(ps *experiments.PointSpec) { ps.Procs = 0 },
		"strategy bogus": func(ps *experiments.PointSpec) { ps.Strategy = "bogus" },
		"machine Nope":   func(ps *experiments.PointSpec) { ps.Machine = "Nope" },
		"chunk_kb 0":     func(ps *experiments.PointSpec) { ps.ChunkKB = 0 },
		"scale -1":       func(ps *experiments.PointSpec) { ps.Scale = -1 },
	} {
		ps := good
		edit(&ps)
		bad[name] = ps
	}
	return good, bad
}

// TestPointSpecValidatedBeforeSlot pins that a worker refuses an
// out-of-range spec before admission: with its only slot held, each of
// the five invalid specs still gets 400 bad_request, while a valid spec
// is shed for want of a slot; nothing is executed, counted as failed,
// or cached.
func TestPointSpecValidatedBeforeSlot(t *testing.T) {
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.pointAdmitMax = 1
	release, ok := s.acquirePointSlot(context.Background())
	if !ok {
		t.Fatal("could not hold the only slot")
	}
	defer release()

	good, bad := invalidPointSpecs(t)
	if status, env := postPoint(t, ts.URL, "derive", good); status != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != CodeQueueFull {
		t.Fatalf("valid spec with no free slot: status %d, envelope %+v; want 503 queue_full", status, env)
	}
	for name, ps := range bad {
		status, env := postPoint(t, ts.URL, "derive", ps)
		if status != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d, envelope %+v; want 400 bad_request", name, status, env)
		}
	}

	m := s.Metrics()
	for _, name := range []string{mPointsFailed, mPointsExecuted, mJobsPanics} {
		if got := m.Get(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := m.Get(mPointsRejected); got != 1 {
		t.Errorf("%s = %d, want 1 (the valid spec only)", mPointsRejected, got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after refused points", n)
	}
}

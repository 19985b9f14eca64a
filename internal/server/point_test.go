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
		Run: fn,
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

// postBatch ships a batched lease to a server's point endpoint. ndjson
// selects the streamed reply; keys follow postPoint's convention
// ("derive", "", or a literal). Returns the status, the frames read
// (one per outcome when streamed, a single all-outcomes envelope
// otherwise), and the response Content-Type.
func postBatch(t *testing.T, url string, ndjson bool, keys []string, specs []experiments.PointSpec) (int, []Envelope, string) {
	t.Helper()
	items := make([]map[string]interface{}, len(specs))
	for i, spec := range specs {
		key := keys[i]
		if key == "derive" {
			k, err := canon.PointKey(spec)
			if err != nil {
				t.Fatal(err)
			}
			key = k
		}
		items[i] = map[string]interface{}{"key": key, "point": spec}
	}
	body, err := json.Marshal(map[string]interface{}{"points": items})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/points", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", NDJSONContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envs []Envelope
	dec := json.NewDecoder(resp.Body)
	for {
		var env Envelope
		if err := dec.Decode(&env); err != nil {
			break
		}
		envs = append(envs, env)
	}
	return resp.StatusCode, envs, resp.Header.Get("Content-Type")
}

// TestPointBatchEndpoint pins the batched lease surface: one request
// carries N points, one envelope returns N ordered outcomes, a rerun
// answers every outcome from the cache, and a bad item fails alone
// without poisoning its batch siblings.
func TestPointBatchEndpoint(t *testing.T) {
	registerSyntheticSweep("pt-batch", 4, nil)
	s, err := New(Config{Workers: 2, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []experiments.PointSpec{
		{Machine: "PentiumPro", Procs: 1, Experiment: "pt-batch", Index: 0, N: 10},
		{Machine: "PentiumPro", Procs: 1, Experiment: "pt-batch", Index: 1, N: 10},
		{Machine: "PentiumPro", Procs: 1, Experiment: "pt-batch", Index: 2, N: 10},
	}
	keys := []string{"derive", "derive", ""}
	status, envs, _ := postBatch(t, ts.URL, false, keys, specs)
	if status != http.StatusOK || len(envs) != 1 {
		t.Fatalf("batch run: status %d, %d envelopes", status, len(envs))
	}
	if len(envs[0].Outcomes) != 3 {
		t.Fatalf("outcomes = %d, want 3", len(envs[0].Outcomes))
	}
	for i, o := range envs[0].Outcomes {
		if o.Index != i || o.Point == nil || o.Error != nil {
			t.Fatalf("outcome %d = %+v, want ordered success", i, o)
		}
		if want := int64(1000 + specs[i].Index*7 + 10); o.Point.Cycles != want {
			t.Errorf("outcome %d cycles = %d, want %d", i, o.Point.Cycles, want)
		}
		if o.Cached {
			t.Errorf("fresh outcome %d claims cached", i)
		}
	}

	// Identical rerun: every outcome is a cache hit.
	status, envs, _ = postBatch(t, ts.URL, false, keys, specs)
	if status != http.StatusOK || len(envs) != 1 || len(envs[0].Outcomes) != 3 {
		t.Fatalf("cached batch: status %d, envelopes %+v", status, envs)
	}
	for i, o := range envs[0].Outcomes {
		if !o.Cached || o.Point == nil {
			t.Errorf("rerun outcome %d not cached: %+v", i, o)
		}
	}

	// A bad item fails alone; its siblings still execute.
	mixed := []experiments.PointSpec{
		{Machine: "PentiumPro", Procs: 1, Experiment: "no-such-sweep", Index: 0},
		{Machine: "PentiumPro", Procs: 1, Experiment: "pt-batch", Index: 3, N: 10},
	}
	status, envs, _ = postBatch(t, ts.URL, false, []string{"", ""}, mixed)
	if status != http.StatusOK || len(envs) != 1 || len(envs[0].Outcomes) != 2 {
		t.Fatalf("mixed batch: status %d, envelopes %+v", status, envs)
	}
	if o := envs[0].Outcomes[0]; o.Error == nil || o.Error.Code != CodeNotFound || o.Point != nil {
		t.Errorf("bad item outcome = %+v, want not_found error", o)
	}
	if o := envs[0].Outcomes[1]; o.Error != nil || o.Point == nil || o.Point.Index != 3 {
		t.Errorf("sibling outcome = %+v, want success", o)
	}

	m := s.Metrics()
	if got := m.Get(mPointsBatches); got != 3 {
		t.Errorf("points.batches = %d, want 3", got)
	}
	if got := m.Get(mPointsExecuted); got != 4 {
		t.Errorf("points.executed = %d, want 4", got)
	}
	if got := m.Get(mPointsCacheHits); got != 3 {
		t.Errorf("points.cache_hits = %d, want 3", got)
	}

	// A request carrying both forms is ambiguous and refused.
	body := []byte(`{"point":{"experiment":"pt-batch","index":0},"points":[{"point":{"experiment":"pt-batch","index":1}}]}`)
	resp, err := http.Post(ts.URL+"/v1/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ambiguous request: status %d, want 400", resp.StatusCode)
	}
}

// TestPointBatchStreams pins the streamed batch reply: with ndjson
// negotiated the worker writes one envelope frame per retired point, in
// execution order, each carrying exactly one outcome — the shape the
// coordinator's per-point lease accounting and ?wait progress
// granularity are built on.
func TestPointBatchStreams(t *testing.T) {
	registerSyntheticSweep("pt-batch-stream", 4, nil)
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []experiments.PointSpec{
		{Machine: "PentiumPro", Procs: 1, Experiment: "pt-batch-stream", Index: 0, N: 5},
		{Machine: "PentiumPro", Procs: 1, Experiment: "no-such-sweep", Index: 1},
		{Machine: "PentiumPro", Procs: 1, Experiment: "pt-batch-stream", Index: 2, N: 5},
	}
	status, envs, ctype := postBatch(t, ts.URL, true, []string{"derive", "", "derive"}, specs)
	if status != http.StatusOK {
		t.Fatalf("streamed batch: status %d", status)
	}
	if ctype != NDJSONContentType {
		t.Fatalf("Content-Type = %q, want %q", ctype, NDJSONContentType)
	}
	if len(envs) != 3 {
		t.Fatalf("frames = %d, want one per point", len(envs))
	}
	for i, env := range envs {
		if len(env.Outcomes) != 1 {
			t.Fatalf("frame %d carries %d outcomes, want exactly 1", i, len(env.Outcomes))
		}
		if env.Outcomes[0].Index != i {
			t.Errorf("frame %d outcome index = %d, want frames in batch order", i, env.Outcomes[0].Index)
		}
	}
	if o := envs[1].Outcomes[0]; o.Error == nil || o.Error.Code != CodeNotFound {
		t.Errorf("mid-stream bad item outcome = %+v, want not_found error", o)
	}
	if o := envs[2].Outcomes[0]; o.Error != nil || o.Point == nil || o.Point.Index != 2 {
		t.Errorf("post-error outcome = %+v, want success after a failed sibling", o)
	}
	if got := s.Metrics().Get(mPointsBatches); got != 1 {
		t.Errorf("points.batches = %d, want 1", got)
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
// the five invalid specs still gets 400 bad_request — single form — or a
// bad_request outcome — batch form — while a valid spec is shed for want
// of a slot; nothing is executed, counted as failed, or cached.
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
	var batch []experiments.PointSpec
	for name, ps := range bad {
		status, env := postPoint(t, ts.URL, "derive", ps)
		if status != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d, envelope %+v; want 400 bad_request", name, status, env)
		}
		batch = append(batch, ps)
	}
	status, envs, _ := postBatch(t, ts.URL, false, make([]string, len(batch)), batch)
	if status != http.StatusOK || len(envs) != 1 || len(envs[0].Outcomes) != len(batch) {
		t.Fatalf("invalid batch: status %d, envelopes %+v", status, envs)
	}
	for i, o := range envs[0].Outcomes {
		if o.Error == nil || o.Error.Code != CodeBadRequest || o.Point != nil {
			t.Errorf("batch outcome %d = %+v, want a bad_request error", i, o)
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

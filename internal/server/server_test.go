package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// fakeResult is a minimal Renderable for injected test experiments.
type fakeResult struct {
	Value string `json:"value"`
}

func (f fakeResult) Render(w io.Writer) { fmt.Fprintln(w, f.Value) }

// oneShot registers a one-point decomposition whose point runs point
// and whose merge returns merge's result, and returns its registry
// entry.
func oneShot(name string, point func(ctx context.Context) error,
	merge func(rc experiments.RunConfig) (experiments.Renderable, error)) experiments.Experiment {
	experiments.RegisterDecomposition(name, experiments.Decomposition{
		Points: func(rc experiments.RunConfig) []experiments.PointSpec {
			return []experiments.PointSpec{{Machine: "PentiumPro", Procs: 1, Experiment: name, N: rc.N}}
		},
		Run: func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
			return experiments.PointResult{Index: ps.Index}, point(ctx)
		},
		Merge: func(rc experiments.RunConfig, _ []experiments.PointResult) (experiments.Renderable, error) {
			return merge(rc)
		},
	})
	return experiments.Decomposed(name, "test stand-in")
}

// echo merges to a deterministic value.
func echo(name string) func(rc experiments.RunConfig) (experiments.Renderable, error) {
	return func(rc experiments.RunConfig) (experiments.Renderable, error) {
		return fakeResult{Value: fmt.Sprintf("%s n=%d", name, rc.N)}, nil
	}
}

// gatedExperiment returns an experiment whose one point blocks until
// gate is closed (or the run context is cancelled), signalling each
// start on running and counting executions in runs.
func gatedExperiment(name string, gate <-chan struct{}, running chan struct{}, runs *atomic.Int32) experiments.Experiment {
	return oneShot(name, func(ctx context.Context) error {
		runs.Add(1)
		running <- struct{}{}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}, echo(name))
}

// TestServerCoalescing pins single-flight semantics: concurrent
// submission of an identical job attaches to the in-flight run instead
// of simulating twice, and both jobs finish with the same result bytes.
func TestServerCoalescing(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     2,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	v1, err := s.Submit("fake", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running // the leader is inside its simulation now

	v2, err := s.Submit("fake", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Coalesced {
		t.Error("duplicate submission did not coalesce")
	}
	close(gate)

	r1, _ := s.Await(v1.ID, 5*time.Second, nil)
	r2, _ := s.Await(v2.ID, 5*time.Second, nil)
	if r1.State != StateDone || r2.State != StateDone {
		t.Fatalf("states = %s/%s, want done/done", r1.State, r2.State)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("experiment ran %d times, want 1", got)
	}
	if !bytes.Equal(r1.Result, r2.Result) {
		t.Error("coalesced job's result differs from its leader's")
	}
	if r1.Key != r2.Key {
		t.Errorf("coalesced jobs carry different keys: %s vs %s", r1.Key, r2.Key)
	}
	if got := s.Metrics().Get(mJobsCoalesced); got != 1 {
		t.Errorf("jobs.coalesced = %d, want 1", got)
	}
}

// TestServerGracefulShutdownDrains pins the drain path: Shutdown with a
// generous deadline lets the running job and the queued job both finish,
// and their results are retrievable afterwards.
func TestServerGracefulShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     1,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}

	v1, err := s.Submit("fake", JobParams{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	v2, err := s.Submit("fake", JobParams{N: 200}) // distinct key: stays queued
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate) // release the runs while Shutdown is draining
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown = %v, want nil", err)
	}

	for _, id := range []string{v1.ID, v2.ID} {
		v, ok := s.Job(id)
		if !ok || v.State != StateDone || len(v.Result) == 0 {
			t.Errorf("after drain, job %s = %+v, want done with result", id, v)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("experiment ran %d times, want 2", got)
	}
	if _, err := s.Submit("fake", JobParams{N: 300}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Submit after Shutdown = %v, want ErrShuttingDown", err)
	}
}

// TestServerShutdownCancelsInFlight pins forced shutdown: when the drain
// deadline expires, cancellation propagates through the run context into
// the experiment pool and the stuck job fails with the context error.
func TestServerShutdownCancelsInFlight(t *testing.T) {
	gate := make(chan struct{}) // never closed: the job can only end via ctx
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     1,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Submit("fake", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown = %v, want DeadlineExceeded", err)
	}
	got, _ := s.Job(v.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, context.Canceled.Error()) {
		t.Errorf("cancelled job = state %s error %q, want failed with context.Canceled", got.State, got.Error)
	}
}

// occupyWorker submits two distinct jobs to a one-worker server and
// returns once the worker holds both: the first running, the second
// taken in the first's tail (the overlap rule), so the queue is empty
// and the worker takes no third job until the first finishes.
func occupyWorker(t *testing.T, submit func(n int), running <-chan struct{}, s *Server) {
	t.Helper()
	submit(100)
	<-running
	submit(200)
	for s.QueueDepth() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestServerQueueBound pins the bounded queue: with one busy worker and a
// one-slot queue, the job after the one that fills the queue is
// rejected with ErrQueueFull.
func TestServerQueueBound(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     1,
		QueueDepth:  1,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()

	occupyWorker(t, func(n int) {
		if _, err := s.Submit("fake", JobParams{N: n}); err != nil {
			t.Fatal(err)
		}
	}, running, s)
	if _, err := s.Submit("fake", JobParams{N: 300}); err != nil {
		t.Fatal(err)
	}
	v, err := s.Submit("fake", JobParams{N: 400})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fourth submit = %v, want ErrQueueFull", err)
	}
	if v.State != StateFailed {
		t.Errorf("rejected job state = %s, want failed", v.State)
	}
	if got := s.Metrics().Get(mJobsRejected); got != 1 {
		t.Errorf("jobs.rejected = %d, want 1", got)
	}
}

// TestServerUnknownExperiment pins submission validation.
func TestServerUnknownExperiment(t *testing.T) {
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, err := s.Submit("nope", JobParams{}); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Submit(nope) = %v, want ErrUnknownExperiment", err)
	}
}

// TestServerRefusesWholeJobExperiment pins the one job shape: a server
// will not serve an experiment that has no point decomposition, however
// it could run.
func TestServerRefusesWholeJobExperiment(t *testing.T) {
	whole := experiments.Experiment{
		Name: "whole-job",
		Run: func(context.Context, experiments.RunConfig) (experiments.Renderable, error) {
			return fakeResult{Value: "whole"}, nil
		},
	}
	if s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{whole}}); err == nil {
		s.Shutdown(context.Background())
		t.Fatal("New served an experiment without a decomposition")
	}
}

// submitHTTP posts one job and decodes the response envelope, folding
// the hoisted result back into the view for the callers' convenience.
func submitHTTP(t *testing.T, url, body string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		var env Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Version != APIVersion {
			t.Fatalf("api_version = %q, want %q", env.Version, APIVersion)
		}
		if env.Job == nil {
			t.Fatal("submit response envelope has no job")
		}
		v = *env.Job
		v.Result = env.Result
	}
	return v, resp.StatusCode
}

// TestServerEndToEndCacheHit is the acceptance test: over HTTP, submit
// the same real experiment twice. The first submission simulates; the
// second is served from the cache (no second simulation, hit counter
// increments) with byte-identical results, which in turn match a fresh
// direct simulation of the same configuration — the differential
// guarantee that memoization never changes answers.
func TestServerEndToEndCacheHit(t *testing.T) {
	s, err := New(Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Tiny quickstart: n clamps to 1024, milliseconds of simulation.
	const body = `{"experiment": "quickstart", "params": {"scale": 0.001}}`
	v1, code := submitHTTP(t, ts.URL, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("first submit: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v1.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Job == nil {
		t.Fatal("job envelope has no job")
	}
	done := *env.Job
	done.Result = env.Result
	if done.State != StateDone {
		t.Fatalf("first job = %s (error %q), want done", done.State, done.Error)
	}
	if len(done.Result) == 0 {
		t.Fatal("first job has no result payload")
	}

	// Second submission: answered at submit time, from the cache.
	v2, code := submitHTTP(t, ts.URL, body)
	if code != http.StatusOK {
		t.Errorf("second submit: status %d, want 200 (cache hit)", code)
	}
	if v2.State != StateDone || !v2.Cached {
		t.Errorf("second job = state %s cached %v, want immediate cached done", v2.State, v2.Cached)
	}
	if !bytes.Equal(done.Result, v2.Result) {
		t.Error("cached result differs from the first run's result")
	}

	snap := s.Metrics()
	if got := snap.Get(mJobsExecuted); got != 1 {
		t.Errorf("jobs.executed = %d, want 1 (second run must not simulate)", got)
	}
	if got := snap.Get("cache.hits"); got != 1 {
		t.Errorf("cache.hits = %d, want 1", got)
	}
	if got := snap.Get(mJobsCacheHits); got != 1 {
		t.Errorf("jobs.cache_hits = %d, want 1", got)
	}

	// The exposition endpoint reflects the same counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"jobs.executed 1", "cache.hits 1", "queue.depth ", "jobs.time.run_ns "} {
		if !strings.Contains(string(mtext), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mtext)
		}
	}

	// Differential check: the stored cache entry is byte-identical to a
	// fresh simulation of the same fully-resolved configuration,
	// rendered the same way. (The HTTP responses above re-indent the
	// nested result, so the comparison is against the cache itself.)
	e, ok := experiments.Lookup("quickstart")
	if !ok {
		t.Fatal("quickstart not registered")
	}
	params := JobParams{Scale: 0.001}.WithDefaults()
	r, err := e.Run(context.Background(), params.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RenderJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := s.cache.Get(done.Key)
	if !ok {
		t.Fatal("no cache entry under the job's key")
	}
	if !bytes.Equal(fresh, cached) {
		t.Error("cached result bytes differ from a fresh simulation of the same config")
	}
}

// TestServerHTTPSurface covers the remaining endpoints: experiment
// discovery shares the registry's metadata, job listing, and the error
// statuses.
func TestServerHTTPSurface(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var disc Envelope
	if err := json.NewDecoder(resp.Body).Decode(&disc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := experiments.Infos()
	if len(disc.Experiments) != len(want) {
		t.Fatalf("/v1/experiments returned %d entries, want %d", len(disc.Experiments), len(want))
	}
	for i := range want {
		if disc.Experiments[i] != want[i] {
			t.Errorf("experiment[%d] = %+v, want %+v", i, disc.Experiments[i], want[i])
		}
	}

	if _, code := submitHTTP(t, ts.URL, `{"experiment": "nope"}`); code != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d, want 404", code)
	}
	if _, code := submitHTTP(t, ts.URL, `{"experiment": "table1", "params": {"scale": -1}}`); code != http.StatusBadRequest {
		t.Errorf("bad params: status %d, want 400", code)
	}
	if _, code := submitHTTP(t, ts.URL, `{"bogus": true}`); code != http.StatusBadRequest {
		t.Errorf("unknown body field: status %d, want 400", code)
	}

	v, code := submitHTTP(t, ts.URL, `{"experiment": "table1"}`)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("table1 submit: status %d", code)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "?wait=10s"); err == nil {
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list Envelope
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Errorf("job list = %+v, want the one submitted job", list.Jobs)
	}
	if len(list.Jobs) == 1 && list.Jobs[0].Result != nil {
		t.Error("job list leaked result payloads")
	}

	for path, wantCode := range map[string]int{
		"/v1/jobs/absent":                  http.StatusNotFound,
		"/v1/jobs/" + v.ID + "?wait=bogus": http.StatusBadRequest,
		"/healthz":                         http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
}

// echoExperiment completes immediately with a deterministic value.
func echoExperiment(name string) experiments.Experiment {
	return oneShot(name, func(context.Context) error { return nil }, echo(name))
}

// panickyExperiment's point signals running and waits for gate; then
// its merge, which runs on the job's own goroutine, panics.
func panickyExperiment(name string, gate <-chan struct{}, running chan struct{}) experiments.Experiment {
	return oneShot(name, func(context.Context) error {
		running <- struct{}{}
		<-gate
		return nil
	}, func(experiments.RunConfig) (experiments.Renderable, error) {
		panic("deliberate test panic")
	})
}

// assertConservation pins the counter invariant after a full drain:
// every accepted submission is terminal, so
// jobs.submitted = jobs.completed + jobs.failed.
func assertConservation(t *testing.T, s *Server) {
	t.Helper()
	snap := s.Metrics()
	sub, comp, fail := snap.Get(mJobsSubmitted), snap.Get(mJobsCompleted), snap.Get(mJobsFailed)
	if sub != comp+fail {
		t.Errorf("counter conservation violated: submitted %d != completed %d + failed %d", sub, comp, fail)
	}
	if s.unconserved.Load() {
		t.Error("the runtime conservation check fired on some job transition")
	}
}

// TestServerFollowerAdoptsLeaderPanic pins the coalesced-follower error
// path for a panicking leader: the follower fails with the leader's
// error (stack included), the panic is counted, and the worker pool
// keeps serving afterwards.
func TestServerFollowerAdoptsLeaderPanic(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	s, err := New(Config{
		Workers: 1,
		Experiments: []experiments.Experiment{
			panickyExperiment("bad", gate, running),
			echoExperiment("good"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	v1, err := s.Submit("bad", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	v2, err := s.Submit("bad", JobParams{})
	if err != nil || !v2.Coalesced {
		t.Fatalf("follower = %+v, %v, want coalesced", v2, err)
	}
	close(gate)

	r1, _ := s.Await(v1.ID, 5*time.Second, nil)
	r2, _ := s.Await(v2.ID, 5*time.Second, nil)
	for _, r := range []JobView{r1, r2} {
		if r.State != StateFailed {
			t.Fatalf("job %s = %s, want failed", r.ID, r.State)
		}
		if !strings.Contains(r.Error, "experiment panicked") || !strings.Contains(r.Error, "deliberate test panic") {
			t.Errorf("job %s error = %q, want panic value", r.ID, r.Error)
		}
	}
	if !strings.Contains(r1.Error, "server_test.go") {
		t.Errorf("leader error lacks a stack trace:\n%s", r1.Error)
	}
	if got := s.Metrics().Get(mJobsPanics); got != 1 {
		t.Errorf("jobs.panics = %d, want 1", got)
	}
	// The worker survived the recovered panic.
	v3, err := s.Submit("good", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	if r3, _ := s.Await(v3.ID, 5*time.Second, nil); r3.State != StateDone {
		t.Errorf("job after panic = %s (error %q), want done", r3.State, r3.Error)
	}
	assertConservation(t, s)
}

// TestServerFollowerAdoptsLeaderTimeout pins the per-job deadline and
// its interaction with coalescing: the key excludes TimeoutMS, so a
// follower with a different timeout still coalesces and adopts the
// leader's deadline failure.
func TestServerFollowerAdoptsLeaderTimeout(t *testing.T) {
	gate := make(chan struct{}) // never closed: only the deadline can end the run
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     1,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	v1, err := s.Submit("fake", JobParams{TimeoutMS: 150})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	v2, err := s.Submit("fake", JobParams{TimeoutMS: 60_000})
	if err != nil || !v2.Coalesced {
		t.Fatalf("follower = %+v, %v, want coalesced despite differing timeout", v2, err)
	}

	r1, _ := s.Await(v1.ID, 5*time.Second, nil)
	r2, _ := s.Await(v2.ID, 5*time.Second, nil)
	for _, r := range []JobView{r1, r2} {
		if r.State != StateFailed || !strings.Contains(r.Error, "deadline") {
			t.Errorf("job %s = %s %q, want failed with deadline error", r.ID, r.State, r.Error)
		}
	}
	if got := s.Metrics().Get(mJobsTimeouts); got != 1 {
		t.Errorf("jobs.timeouts = %d, want 1", got)
	}
	assertConservation(t, s)
}

// TestServerFollowerAtShutdownCancel pins the third follower error
// path: a leader cancelled by forced shutdown takes its followers to
// terminal failed states, and Shutdown's wait covers the follower
// goroutines — it does not return while any are pending.
func TestServerFollowerAtShutdownCancel(t *testing.T) {
	gate := make(chan struct{}) // never closed
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     1,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit("fake", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	v2, err := s.Submit("fake", JobParams{})
	if err != nil || !v2.Coalesced {
		t.Fatalf("follower = %+v, %v, want coalesced", v2, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown = %v, want DeadlineExceeded", err)
	}
	// Shutdown has returned: every job, follower included, must be terminal.
	for _, id := range []string{v1.ID, v2.ID} {
		r, ok := s.Job(id)
		if !ok || r.State != StateFailed || !strings.Contains(r.Error, context.Canceled.Error()) {
			t.Errorf("job %s = %+v, want failed with context.Canceled", id, r)
		}
	}
	assertConservation(t, s)
}

// TestServerCounterConservation pins the satellite fix directly: a
// shutdown-time rejection counts in jobs.rejected only, never in
// jobs.submitted, so the conservation identity survives shutdown.
func TestServerCounterConservation(t *testing.T) {
	s, err := New(Config{Workers: 2, Experiments: []experiments.Experiment{echoExperiment("good")}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Submit("good", JobParams{N: 1000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics()
	if _, err := s.Submit("good", JobParams{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Shutdown = %v, want ErrShuttingDown", err)
	}
	after := s.Metrics()
	if after.Get(mJobsSubmitted) != before.Get(mJobsSubmitted) {
		t.Error("shutdown rejection counted in jobs.submitted")
	}
	if after.Get(mJobsRejected) != before.Get(mJobsRejected)+1 {
		t.Error("shutdown rejection not counted in jobs.rejected")
	}
	if got := after.Get(mJobsSubmitted); got != 5 {
		t.Errorf("jobs.submitted = %d, want 5", got)
	}
	assertConservation(t, s)
}

// TestServerConservationViolationDegrades forces a violation of the
// runtime job-conservation check — a submission counted that no job
// record backs — and pins that the next transition catches it: /healthz
// turns degraded and the counters are logged.
func TestServerConservationViolationDegrades(t *testing.T) {
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("good")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var mu sync.Mutex
	var logged []string
	s.logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit("good", JobParams{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s, v.ID)
	if body, _ := healthz(t, ts.URL); body != "ok" {
		t.Fatalf("healthz before the violation = %q, want ok", body)
	}

	s.metrics.Inc(mJobsSubmitted) // a submission with no job record
	v, err = s.Submit("good", JobParams{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s, v.ID)
	if body, _ := healthz(t, ts.URL); body != "degraded" {
		t.Errorf("healthz after the violation = %q, want degraded", body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "jobs.submitted=3 jobs.completed=1 jobs.failed=0 queued=1 running=0") {
		t.Errorf("logged %q, want one line with the counters at the violation", logged)
	}
}

// TestServerHealthzDraining pins the readiness half of /healthz: while
// Shutdown drains, the probe answers 503 "draining" so a load balancer
// stops routing here before the listener goes away.
func TestServerHealthzDraining(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     1,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if body, code := healthz(t, ts.URL); code != http.StatusOK || body != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, body)
	}

	if _, err := s.Submit("fake", JobParams{}); err != nil {
		t.Fatal(err)
	}
	<-running
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if body, code := healthz(t, ts.URL); code != http.StatusServiceUnavailable || body != "draining" {
		t.Errorf("healthz during drain = %d %q, want 503 draining", code, body)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestServerHealthzDegradedWriteFailure pins graceful degradation end
// to end: with the disk cache failing every write, jobs still complete
// and serve their results (memory-only), the losses are counted, and
// /healthz reports "degraded" while staying 200 — alive, not ready to
// be trusted with durability.
func TestServerHealthzDegradedWriteFailure(t *testing.T) {
	inj := faults.New(1)
	inj.Arm(SiteCacheWrite, faults.Trigger{Prob: 1}) // every write fails
	s, err := New(Config{
		Workers:     1,
		CacheDir:    t.TempDir(),
		Experiments: []experiments.Experiment{echoExperiment("good")},
		Faults:      inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit("good", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Await(v.ID, 5*time.Second, nil)
	if r.State != StateDone || len(r.Result) == 0 {
		t.Fatalf("job under write failure = %s (error %q), want done with result", r.State, r.Error)
	}
	snap := s.Metrics()
	if snap.Get("cache.write_errors") != int64(putAttempts) {
		t.Errorf("cache.write_errors = %d, want %d (every attempt counted)", snap.Get("cache.write_errors"), putAttempts)
	}
	if snap.Get(mCacheWriteRetries) != putAttempts-1 {
		t.Errorf("cache.write_retries = %d, want %d", snap.Get(mCacheWriteRetries), putAttempts-1)
	}
	if body, code := healthz(t, ts.URL); code != http.StatusOK || body != "degraded" {
		t.Errorf("healthz = %d %q, want 200 degraded", code, body)
	}
}

// healthz fetches /healthz and returns the trimmed body and status.
func healthz(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(b)), resp.StatusCode
}

// TestServerLoadShedHTTP pins the shedding contract: a queue-full
// rejection is a 503 with a Retry-After hint and the current queue
// depth in the body, not a bare error.
func TestServerLoadShedHTTP(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:     1,
		QueueDepth:  1,
		Experiments: []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(n int) {
		if _, code := submitHTTP(t, ts.URL, fmt.Sprintf(`{"experiment": "fake", "params": {"n": %d}}`, n)); code != http.StatusAccepted {
			t.Fatalf("submit n=%d: status %d", n, code)
		}
	}
	occupyWorker(t, submit, running, s)
	submit(300)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "fake", "params": {"n": 400}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response lacks Retry-After")
	}
	var shed Envelope
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.Error == nil || shed.Error.Code != CodeQueueFull || shed.QueueDepth == nil {
		t.Errorf("shed body = %+v, want queue_full error and queue_depth", shed)
	}
	if shed.Error != nil && !strings.Contains(shed.Error.Message, ErrQueueFull.Error()) {
		t.Errorf("shed message = %q, want queue-full text", shed.Error.Message)
	}
}

package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/server"
)

// The job surface is one job core (job.go, jobhttp.go) run by two
// daemons, so the tests here run against both: a server, and a
// coordinator in front of a one-worker fleet. The synthetic experiments
// are decomposed sweeps: the server runs their points on its own lanes,
// the coordinator ships them to its worker, and both report point
// progress the same way.

// tick is the daemons' keep-alive cadence: far shorter than writing a
// frame, so a tick is pending whenever a job finishes mid-stream and
// every run exercises the race between a keep-alive and the final
// frame.
const tick = 50 * time.Microsecond

// fakeResult is a minimal Renderable for the synthetic sweeps.
type fakeResult struct {
	Value string `json:"value"`
}

func (f fakeResult) Render(w io.Writer) { fmt.Fprintln(w, f.Value) }

// sweepExperiment registers a synthetic sweep of n points, each resolved
// by point, and returns its registry entry.
func sweepExperiment(name string, n int, point func(ctx context.Context) error) experiments.Experiment {
	experiments.RegisterDecomposition(name, experiments.Decomposition{
		Points: func(rc experiments.RunConfig) []experiments.PointSpec {
			specs := make([]experiments.PointSpec, n)
			for i := range specs {
				specs[i] = experiments.PointSpec{Machine: "PentiumPro", Procs: 1, Experiment: name, Index: i, N: rc.N}
			}
			return specs
		},
		Run: func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
			if err := point(ctx); err != nil {
				return experiments.PointResult{}, err
			}
			return experiments.PointResult{Index: ps.Index, Cycles: int64(ps.N + ps.Index)}, nil
		},
		Merge: func(rc experiments.RunConfig, rs []experiments.PointResult) (experiments.Renderable, error) {
			return fakeResult{Value: fmt.Sprintf("%s done", name)}, nil
		},
	})
	return experiments.Decomposed(name, "synthetic sweep")
}

// steppedSweep advances one point each time step is signalled.
func steppedSweep(name string, points int, step <-chan struct{}) experiments.Experiment {
	return sweepExperiment(name, points, func(ctx context.Context) error {
		select {
		case <-step:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

// gated is a one-point sweep that signals running, counts its runs,
// and blocks until the gate opens or its context dies.
type gated struct {
	gate    chan struct{}
	once    sync.Once
	running chan struct{}
	runs    atomic.Int32
}

func newGated() *gated {
	return &gated{gate: make(chan struct{}), running: make(chan struct{}, 8)}
}

func (g *gated) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gated) sweep(name string) experiments.Experiment {
	return sweepExperiment(name, 1, func(ctx context.Context) error {
		g.runs.Add(1)
		g.running <- struct{}{}
		select {
		case <-g.gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

// echoExperiment finishes at once: one point, and a merge that echoes
// the job's n.
func echoExperiment(name string) experiments.Experiment {
	experiments.RegisterDecomposition(name, experiments.Decomposition{
		Points: func(rc experiments.RunConfig) []experiments.PointSpec {
			return []experiments.PointSpec{{Machine: "PentiumPro", Procs: 1, Experiment: name, N: rc.N}}
		},
		Run: func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
			return experiments.PointResult{Index: ps.Index}, nil
		},
		Merge: func(rc experiments.RunConfig, _ []experiments.PointResult) (experiments.Renderable, error) {
			return fakeResult{Value: fmt.Sprintf("%s n=%d", name, rc.N)}, nil
		},
	})
	return experiments.Decomposed(name, "echo")
}

// daemon is one job-core daemon under test, served over HTTP.
type daemon struct {
	url      string
	submit   func(experiment string, p server.JobParams) (server.JobView, error)
	job      func(id string) (server.JobView, bool)
	metrics  func() metrics.Snapshot
	shutdown func(ctx context.Context) error
	// submitted names the daemon's jobs.submitted counter; routes are
	// its own /v1 routes beyond the job core's.
	submitted string
	routes    []route
}

type route struct{ method, path, body string }

// newServerDaemon serves exps from a server.
func newServerDaemon(t *testing.T, exps []experiments.Experiment) *daemon {
	t.Helper()
	s, err := server.New(server.Config{Workers: 1, Experiments: exps, ProgressInterval: tick})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return &daemon{
		url:       ts.URL,
		submit:    s.Submit,
		job:       s.Job,
		metrics:   s.Metrics,
		shutdown:  s.Shutdown,
		submitted: "jobs.submitted",
		routes:    []route{{"POST", "/v1/points", `{"point": {"experiment": "x"}}`}},
	}
}

// newFleetDaemon serves exps from a coordinator with one worker.
func newFleetDaemon(t *testing.T, exps []experiments.Experiment) *daemon {
	t.Helper()
	w, err := server.New(server.Config{Workers: 4, Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(w.Handler())
	c, err := fabric.New(fabric.Config{
		Experiments:      exps,
		RetryBackoff:     5 * time.Millisecond,
		ProgressInterval: tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register("w", wts.URL)
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		cts.Close()
		c.Shutdown(context.Background())
		// The worker's run context ends its points before its listener
		// waits for their handlers.
		w.Shutdown(context.Background())
		wts.Close()
	})
	return &daemon{
		url:       cts.URL,
		submit:    func(e string, p server.JobParams) (server.JobView, error) { return c.Submit("", e, p) },
		job:       c.Job,
		metrics:   c.Metrics,
		shutdown:  c.Shutdown,
		submitted: "fabric.jobs.submitted",
		routes: []route{
			{"POST", "/v1/workers", `{"name": "x", "url": "http://x"}`},
			{"GET", "/v1/workers", ""},
			{"GET", "/v1/cache/absent", ""},
		},
	}
}

// eachDaemon runs test against a server and against a coordinator, each
// serving exps.
func eachDaemon(t *testing.T, exps func() []experiments.Experiment, test func(t *testing.T, d *daemon)) {
	for _, k := range []struct {
		name string
		make func(*testing.T, []experiments.Experiment) *daemon
	}{{"server", newServerDaemon}, {"coordinator", newFleetDaemon}} {
		t.Run(k.name, func(t *testing.T) { test(t, k.make(t, exps())) })
	}
}

// doJSON performs one request with an optional Accept-Version header and
// returns the decoded generic body plus the status code.
func doJSON(t *testing.T, method, url, version, body string) (map[string]interface{}, int) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if version != "" {
		req.Header.Set(server.VersionHeader, version)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return m, resp.StatusCode
}

// keysOf returns a body's sorted top-level field names.
func keysOf(m map[string]interface{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// streamFrames opens a streaming ?wait on job id under ctx and returns
// the response and a scanner over its frames.
func streamFrames(t *testing.T, ctx context.Context, url, id, wait string) (*http.Response, *bufio.Scanner) {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, "GET", url+"/v1/jobs/"+id+"?wait="+wait, nil)
	req.Header.Set("Accept", server.NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp, bufio.NewScanner(resp.Body)
}

// checkKeepAlive fails on a keep-alive frame (any frame before the
// last) carrying a terminal state: only the final frame may.
func checkKeepAlive(t *testing.T, frames []server.Envelope) {
	t.Helper()
	for i, f := range frames[:len(frames)-1] {
		if f.Job != nil && (f.Job.State == server.StateDone || f.Job.State == server.StateFailed) {
			t.Errorf("keep-alive frame %d carries terminal state %s", i, f.Job.State)
		}
	}
}

// legacyAPIVersion is the pre-envelope wire format the server once
// served; it is now an unknown version like any other.
const legacyAPIVersion = "2024-01"

// TestLegacyVersionRejected pins the removal of the 2024-01 wire format:
// every /v1 route of either daemon answers a request naming it with a
// 400 bad_request envelope error, before doing any work.
func TestLegacyVersionRejected(t *testing.T) {
	eachDaemon(t, func() []experiments.Experiment {
		return []experiments.Experiment{echoExperiment("good")}
	}, func(t *testing.T, d *daemon) {
		sub, code := doJSON(t, "POST", d.url+"/v1/jobs", "", `{"experiment": "good"}`)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit: status %d", code)
		}
		id := sub["job"].(map[string]interface{})["id"].(string)

		before := d.metrics()
		routes := append([]route{
			{"GET", "/v1/experiments", ""},
			{"POST", "/v1/jobs", `{"experiment": "good"}`},
			{"GET", "/v1/jobs", ""},
			{"GET", "/v1/jobs/" + id, ""},
			{"GET", "/v1/jobs/" + id + "?wait=10s", ""},
			{"GET", "/v1/jobs/absent", ""},
			{"GET", "/v1/jobs/" + id + "/repro", ""},
		}, d.routes...)
		for _, tc := range routes {
			m, code := doJSON(t, tc.method, d.url+tc.path, legacyAPIVersion, tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", tc.method, tc.path, code)
			}
			e, ok := m["error"].(map[string]interface{})
			if !ok || e["code"] != server.CodeBadRequest || !strings.Contains(e["message"].(string), legacyAPIVersion) {
				t.Errorf("%s %s: error = %v, want code %q naming %s", tc.method, tc.path, m["error"], server.CodeBadRequest, legacyAPIVersion)
			}
			if m["api_version"] != server.APIVersion {
				t.Errorf("%s %s: api_version = %v, want %s", tc.method, tc.path, m["api_version"], server.APIVersion)
			}
		}
		after := d.metrics()
		for _, name := range []string{d.submitted, "points.executed", "fabric.workers.registered"} {
			if after.Get(name) != before.Get(name) {
				t.Errorf("%s went %d → %d: a refused request did work", name, before.Get(name), after.Get(name))
			}
		}
	})
}

// TestCheckpointRoutesRemoved pins the removal of checkpoint streams:
// the deleted /v1/jobs/{id}/checkpoints routes answer 404 or 405, and a
// submission in the deleted from_checkpoint form is a 400 bad_request.
func TestCheckpointRoutesRemoved(t *testing.T) {
	d := newServerDaemon(t, []experiments.Experiment{echoExperiment("good")})
	v, err := d.submit("good", server.JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []route{
		{"POST", "/v1/jobs/" + v.ID + "/checkpoints", `{}`},
		{"GET", "/v1/jobs/" + v.ID + "/checkpoints", ""},
		{"GET", "/v1/jobs/" + v.ID + "/checkpoints/0", ""},
	} {
		req, _ := http.NewRequest(tc.method, d.url+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 404 or 405", tc.method, tc.path, resp.StatusCode)
		}
	}
	m, code := doJSON(t, "POST", d.url+"/v1/jobs", "", `{"from_checkpoint": {"job": "`+v.ID+`", "k": 0}}`)
	if e, _ := m["error"].(map[string]interface{}); code != http.StatusBadRequest || e == nil || e["code"] != server.CodeBadRequest {
		t.Errorf("from_checkpoint submission: status %d, error %v; want 400 %s", code, m["error"], server.CodeBadRequest)
	}
}

// TestEnvelopeShapes pins the current wire format: every body is an
// envelope stamped api_version, results ride beside jobs, and errors are
// typed {code, message} objects.
func TestEnvelopeShapes(t *testing.T) {
	eachDaemon(t, func() []experiments.Experiment {
		return []experiments.Experiment{echoExperiment("good")}
	}, func(t *testing.T, d *daemon) {
		sub, code := doJSON(t, "POST", d.url+"/v1/jobs", "", `{"experiment": "good"}`)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit: status %d", code)
		}
		if sub["api_version"] != server.APIVersion {
			t.Errorf("api_version = %v, want %s", sub["api_version"], server.APIVersion)
		}
		job, ok := sub["job"].(map[string]interface{})
		if !ok {
			t.Fatalf("submit body lacks a job object: %v", keysOf(sub))
		}
		id := job["id"].(string)

		done, _ := doJSON(t, "GET", d.url+"/v1/jobs/"+id+"?wait=10s", server.APIVersion, "")
		dj := done["job"].(map[string]interface{})
		if dj["state"] != string(server.StateDone) {
			t.Fatalf("job state = %v, want done", dj["state"])
		}
		if _, has := dj["result"]; has {
			t.Error("envelope job embeds the result; it must be hoisted to the envelope")
		}
		if _, has := done["result"]; !has {
			t.Error("envelope lacks the hoisted result")
		}

		// Typed errors with codes, by endpoint.
		for _, tc := range []struct {
			method, path, body string
			wantStatus         int
			wantCode           string
		}{
			{"GET", "/v1/jobs/absent", "", http.StatusNotFound, server.CodeNotFound},
			{"POST", "/v1/jobs", `{"experiment": "nope"}`, http.StatusNotFound, server.CodeNotFound},
			{"POST", "/v1/jobs", `{"bogus": 1}`, http.StatusBadRequest, server.CodeBadRequest},
			{"GET", "/v1/jobs/" + id + "?wait=bogus", "", http.StatusBadRequest, server.CodeBadRequest},
		} {
			m, code := doJSON(t, tc.method, d.url+tc.path, "", tc.body)
			if code != tc.wantStatus {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.wantStatus)
			}
			e, ok := m["error"].(map[string]interface{})
			if !ok || e["code"] != tc.wantCode || e["message"] == "" {
				t.Errorf("%s %s: error = %v, want code %q with message", tc.method, tc.path, m["error"], tc.wantCode)
			}
		}

		// Unknown version header: refused, not guessed.
		if _, code := doJSON(t, "GET", d.url+"/v1/jobs", "1999-12", ""); code != http.StatusBadRequest {
			t.Errorf("unknown Accept-Version: status %d, want 400", code)
		}
	})
}

// TestWaitCancelledEnvelope pins the ?wait answer for a job cancelled
// mid-wait: not a bare 200 body the client has to diagnose — the
// envelope carries the terminal typed "cancelled" code alongside the
// failed job.
func TestWaitCancelledEnvelope(t *testing.T) {
	var g *gated // never opened: only cancellation ends the run
	eachDaemon(t, func() []experiments.Experiment {
		g = newGated()
		return []experiments.Experiment{g.sweep("fake")}
	}, func(t *testing.T, d *daemon) {
		v, err := d.submit("fake", server.JobParams{})
		if err != nil {
			t.Fatal(err)
		}
		<-g.running

		// Start the wait, then cancel the job via forced shutdown.
		type waited struct {
			m    map[string]interface{}
			code int
		}
		ch := make(chan waited, 1)
		go func() {
			m, code := doJSON(t, "GET", d.url+"/v1/jobs/"+v.ID+"?wait=30s", "", "")
			ch <- waited{m, code}
		}()
		time.Sleep(30 * time.Millisecond) // the waiter is blocked on the job now
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		d.shutdown(ctx)

		got := <-ch
		if got.code != http.StatusOK {
			t.Fatalf("cancelled wait: status %d", got.code)
		}
		e, ok := got.m["error"].(map[string]interface{})
		if !ok {
			t.Fatalf("cancelled wait body lacks an error object: %v", keysOf(got.m))
		}
		if e["code"] != server.CodeCancelled {
			t.Errorf("error.code = %v, want %q", e["code"], server.CodeCancelled)
		}
		job := got.m["job"].(map[string]interface{})
		if job["state"] != string(server.StateFailed) || job["error_code"] != server.CodeCancelled {
			t.Errorf("job = state %v error_code %v, want failed/cancelled", job["state"], job["error_code"])
		}
	})
}

// TestStreamingWaitKeepAlive pins the streaming long-poll contract: a
// ?wait request with "Accept: application/x-ndjson" receives periodic
// one-line envelope frames carrying live points_done/points_total while
// the job runs, and a final frame that is the complete job envelope —
// so a slow sweep is distinguishable from a dead connection. No
// keep-alive frame carries a terminal state, however the tick races
// the job's completion.
func TestStreamingWaitKeepAlive(t *testing.T) {
	const total = 3
	step := make(chan struct{}, total)
	eachDaemon(t, func() []experiments.Experiment {
		return []experiments.Experiment{steppedSweep("slow", total, step)}
	}, func(t *testing.T, d *daemon) {
		v, err := d.submit("slow", server.JobParams{})
		if err != nil {
			t.Fatal(err)
		}
		resp, sc := streamFrames(t, context.Background(), d.url, v.ID, "10s")
		if got := resp.Header.Get("Content-Type"); got != server.NDJSONContentType {
			t.Errorf("Content-Type = %q, want %q", got, server.NDJSONContentType)
		}

		// Let the sweep advance one point at a time, with enough wall time
		// between points for keep-alive frames to fire.
		go func() {
			for i := 0; i < total; i++ {
				time.Sleep(25 * time.Millisecond)
				step <- struct{}{}
			}
		}()

		var frames []server.Envelope
		for sc.Scan() {
			line := sc.Bytes()
			var env server.Envelope
			if err := json.Unmarshal(line, &env); err != nil {
				t.Fatalf("frame is not one JSON line: %v\n%s", err, line)
			}
			if env.Version != server.APIVersion {
				t.Errorf("frame version = %q", env.Version)
			}
			frames = append(frames, env)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(frames) < 3 {
			t.Fatalf("got %d frames, want several keep-alives plus a final", len(frames))
		}

		final := frames[len(frames)-1]
		if final.Job == nil || final.Job.State != server.StateDone || len(final.Result) == 0 {
			t.Fatalf("final frame is not the completed envelope: %+v", final)
		}
		var res fakeResult
		if err := json.Unmarshal(final.Result, &res); err != nil || res.Value != "slow done" {
			t.Errorf("final result = %q, %v", res.Value, err)
		}

		// Keep-alive frames carry monotonically nondecreasing progress, and
		// at least one observed the sweep mid-flight.
		checkKeepAlive(t, frames)
		sawLive := false
		prev := -1
		for _, f := range frames[:len(frames)-1] {
			if f.Job == nil {
				t.Errorf("keep-alive frame has unexpected shape: %+v", f)
			}
			if len(f.Result) != 0 {
				t.Error("keep-alive frame carries a result payload")
			}
			if f.Progress != nil {
				if f.Progress.PointsTotal != total {
					t.Errorf("points_total = %d, want %d", f.Progress.PointsTotal, total)
				}
				if f.Progress.PointsDone < prev {
					t.Errorf("points_done went backwards: %d after %d", f.Progress.PointsDone, prev)
				}
				prev = f.Progress.PointsDone
				if f.Progress.PointsDone > 0 && f.Progress.PointsDone < total {
					sawLive = true
				}
			}
		}
		if !sawLive {
			t.Error("no keep-alive frame observed the sweep mid-flight")
		}
	})
}

// TestStreamingWaitTimeout pins the wait-bound: a streaming poll whose
// wait elapses before the job finishes ends with a frame that reports
// the job still running, not an error and not a hang.
func TestStreamingWaitTimeout(t *testing.T) {
	var g *gated
	eachDaemon(t, func() []experiments.Experiment {
		g = newGated()
		return []experiments.Experiment{g.sweep("fake")}
	}, func(t *testing.T, d *daemon) {
		t.Cleanup(g.open)
		v, err := d.submit("fake", server.JobParams{})
		if err != nil {
			t.Fatal(err)
		}
		<-g.running

		_, sc := streamFrames(t, context.Background(), d.url, v.ID, "50ms")
		var frames []server.Envelope
		for sc.Scan() {
			var f server.Envelope
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
				t.Fatalf("bad frame: %v", err)
			}
			frames = append(frames, f)
		}
		if len(frames) < 2 {
			t.Fatalf("got %d frames across a 50ms wait, want several", len(frames))
		}
		checkKeepAlive(t, frames)
		if last := frames[len(frames)-1]; last.Job == nil || last.Job.State != server.StateRunning || last.Error != nil {
			t.Errorf("final frame after wait timeout = %+v, want a running job and no error", last)
		}
	})
}

// TestStreamingWaitClientDisconnect pins the decoupling between a
// streaming watcher and the job it watches: when the client drops the
// connection mid-stream, the job keeps running to completion, and the
// goroutines servicing the dead stream are torn down rather than
// leaked. A monitoring dashboard closing a tab must never cancel or
// orphan the sweep underneath it.
func TestStreamingWaitClientDisconnect(t *testing.T) {
	var g *gated
	eachDaemon(t, func() []experiments.Experiment {
		g = newGated()
		return []experiments.Experiment{g.sweep("fake")}
	}, func(t *testing.T, d *daemon) {
		v, err := d.submit("fake", server.JobParams{})
		if err != nil {
			t.Fatal(err)
		}
		<-g.running

		// Steady state: daemon up, job running, no stream attached yet.
		// Goroutines must return to this level once the stream dies.
		baseline := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		_, sc := streamFrames(t, ctx, d.url, v.ID, "10s")
		// Read at least one keep-alive frame so the stream is
		// demonstrably live before the disconnect.
		if !sc.Scan() {
			t.Fatalf("no frame before disconnect: %v", sc.Err())
		}
		var env server.Envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad frame: %v", err)
		}
		if env.Job == nil || env.Job.State != server.StateRunning {
			t.Fatalf("first frame = %+v, want the running job", env)
		}

		// Drop the connection mid-stream, then let the sweep finish.
		cancel()
		g.open()

		deadline := time.Now().Add(5 * time.Second)
		for {
			if j, ok := d.job(v.ID); ok && j.State == server.StateDone {
				break
			}
			if time.Now().After(deadline) {
				j, _ := d.job(v.ID)
				t.Fatalf("job never finished after client disconnect: %+v", j)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := g.runs.Load(); got != 1 {
			t.Errorf("runs = %d, want 1 (disconnect must not rerun or cancel the job)", got)
		}
		server.WaitNoGoroutineLeaks(t, baseline)
	})
}

// TestStreamingWaitUnknownJob pins that the stream path refuses an
// unknown id with an ordinary envelope error.
func TestStreamingWaitUnknownJob(t *testing.T) {
	eachDaemon(t, func() []experiments.Experiment {
		return []experiments.Experiment{echoExperiment("echo")}
	}, func(t *testing.T, d *daemon) {
		resp, _ := streamFrames(t, context.Background(), d.url, "nope", "1s")
		var env server.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != server.CodeNotFound {
			t.Errorf("unknown job: status %d, error %+v", resp.StatusCode, env.Error)
		}
	})
}

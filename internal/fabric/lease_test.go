package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/server"
)

// TestStreamedProgressPerPoint pins the ?wait granularity of a fleet
// job: the streamed ndjson progress frames advance points_done point by
// point as leases complete, not only at 0 and total.
func TestStreamedProgressPerPoint(t *testing.T) {
	const points = 6
	registerSweep("fab-progress", points, func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		time.Sleep(20 * time.Millisecond) // space the completions out
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index)}, nil
	})
	url, stop := newWorker(t, "")
	defer stop()
	c, err := New(Config{
		Experiments:      []experiments.Experiment{syntheticExperiment("fab-progress")},
		MaxInflight:      1,
		RetryBackoff:     5 * time.Millisecond,
		ProgressInterval: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	_, env := httpSubmit(t, ts.URL, "", "fab-progress", server.JobParams{N: 3})
	if env.Job == nil {
		t.Fatal("submit returned no job")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+env.Job.ID+"?wait=15s", nil)
	req.Header.Set(server.VersionHeader, server.APIVersion)
	req.Header.Set("Accept", server.NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	partials := make(map[int]bool)
	var final server.Envelope
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var f server.Envelope
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if f.Progress != nil && f.Progress.PointsDone > 0 && f.Progress.PointsDone < f.Progress.PointsTotal {
			partials[f.Progress.PointsDone] = true
		}
		final = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(partials) < 2 {
		t.Fatalf("progress over %d points showed %d distinct partial values %v, want per-point advancement",
			points, len(partials), partials)
	}
	if final.Job == nil || final.Job.State != server.StateDone {
		t.Fatalf("final frame not a done job: %+v", final)
	}
	if want := expectedRender(t, "fab-progress", server.JobParams{N: 3}); !jsonEqualCompact(t, final.Result, want) {
		t.Fatal("streamed result differs from single-node run")
	}
}

// blockFirst returns a point function whose first call while armed
// signals entered and then blocks until release closes or its context
// ends; every other call returns the sweep's arithmetic result at once.
func blockFirst(armed *atomic.Bool, entered chan<- struct{}, release <-chan struct{}) func(context.Context, experiments.PointSpec) (experiments.PointResult, error) {
	var calls atomic.Int64
	return func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		if armed.Load() && calls.Add(1) == 1 {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
				return experiments.PointResult{}, ctx.Err()
			}
		}
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
	}
}

// TestChaosWorkerDeathMidLease kills the worker holding a job's only
// point mid-lease (its connections reset). The lease must close as
// point_retried, the point must complete on the other worker exactly
// once, and both the journal and the live counters must balance:
//
//	assigned 2 = completed 1 + retried 1 + failed 0.
func TestChaosWorkerDeathMidLease(t *testing.T) {
	const name = "fab-lease-chaos"
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	registerSweep(name, 1, blockFirst(&armed, entered, release))
	exp := []experiments.Experiment{syntheticExperiment(name)}

	var workers []*server.Server
	var urls []*httptest.Server
	for range 2 {
		s, err := server.New(server.Config{Workers: 1, Experiments: exp})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		workers, urls = append(workers, s), append(urls, ts)
	}
	journalDir := t.TempDir()
	c, err := New(Config{Experiments: exp, JournalDir: journalDir, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	p := server.JobParams{N: 7}
	want := expectedRender(t, name, p) // before arming: the local run must not block
	armed.Store(true)
	c.Register("a", urls[0].URL) // only a is enlisted when the point ships
	v, err := c.Submit("", name, p)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the point never reached worker a")
	}
	c.Register("b", urls[1].URL)
	urls[0].CloseClientConnections() // a dies with the lease open
	close(release)

	v = awaitDone(t, c, v.ID)
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("merged result after mid-lease death differs from single-node run:\n got: %q\nwant: %q", v.Result, want)
	}
	snap := c.Metrics()
	for metric, n := range map[string]int64{mPointsAssigned: 2, mPointsCompleted: 1, mPointsRetried: 1, mPointsFailed: 0} {
		if got := snap.Get(metric); got != n {
			t.Errorf("%s = %d, want %d", metric, got, n)
		}
	}
	checkConservation(t, c)
	if got := workers[1].Metrics().Get("points.executed"); got != 1 {
		t.Errorf("worker b executed %d points, want 1", got)
	}

	recs, _, err := journal.Read(journal.Path(journalDir))
	if err != nil {
		t.Fatal(err)
	}
	counts := countRecords(recs, v.ID)
	if counts.assigned != 2 || counts.retried != 1 || counts.completed != 1 || counts.failed != 0 {
		t.Fatalf("journal %+v, want 2 assigned, 1 retried, 1 completed, 0 failed", counts)
	}
	if counts.completedByIndex[0] != 1 {
		t.Fatalf("point 0 journaled completed %d times, want exactly 1", counts.completedByIndex[0])
	}
}

// TestWorkerDrainRetriesPoint drains a worker while its shipped point
// waits in the warm path, off a stand-in prefix whose tail blocks. The
// worker's Shutdown cancels its run context before the in-flight point
// handler returns; the point must come back retryable (shutting_down),
// not terminally cancelled, and the job must complete on the other
// worker with conservation intact.
func TestWorkerDrainRetriesPoint(t *testing.T) {
	const name = "fab-drain"
	var armed atomic.Bool
	entered := make(chan struct{})
	run := blockFirst(&armed, entered, nil)
	experiments.RegisterDecomposition(name, experiments.Decomposition{
		Points: func(rc experiments.RunConfig) []experiments.PointSpec {
			return []experiments.PointSpec{{Machine: "PentiumPro", Procs: 1, Scale: 0.01, Experiment: name, N: rc.N}}
		},
		Prefix: func(ps experiments.PointSpec) (experiments.PrefixSpec, bool) {
			return experiments.PrefixSpec{Machine: ps.Machine, Procs: ps.Procs, Scale: ps.Scale}, true
		},
		Run: func(ctx context.Context, _ *experiments.PrefixState, ps experiments.PointSpec) (experiments.PointResult, error) {
			return run(ctx, ps)
		},
		Merge: func(_ experiments.RunConfig, rs []experiments.PointResult) (experiments.Renderable, error) {
			return fakeResult{Value: fmt.Sprintf("%s cycles=%d", name, rs[0].Cycles)}, nil
		},
	})
	sA, err := server.New(server.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sA.Shutdown(context.Background())
	tsA := httptest.NewServer(sA.Handler())
	defer tsA.Close()
	urlB, stopB := newWorker(t, "")
	defer stopB()
	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment(name)},
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	p := server.JobParams{N: 5}
	want := expectedRender(t, name, p) // before arming: the local run must not block
	armed.Store(true)
	c.Register("a", tsA.URL)
	v, err := c.Submit("", name, p)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the point never reached worker a")
	}
	c.Register("b", urlB)
	// Drain a as cascade-server does on SIGTERM: the server first, then
	// its HTTP listener, which waits for the in-flight point handler.
	if err := sA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	v = awaitDone(t, c, v.ID)
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("result after draining a worker differs from single-node run:\n got: %q\nwant: %q", v.Result, want)
	}
	snap := c.Metrics()
	for metric, n := range map[string]int64{mPointsAssigned: 2, mPointsCompleted: 1, mPointsRetried: 1, mPointsFailed: 0} {
		if got := snap.Get(metric); got != n {
			t.Errorf("%s = %d, want %d", metric, got, n)
		}
	}
	checkConservation(t, c)
	if got := sA.Metrics().Get("prefix.misses"); got != 1 {
		t.Errorf("worker a looked up %d uncached prefixes, want 1: the point must wait in the warm path", got)
	}
}

// FuzzPointReply feeds the coordinator arbitrary worker replies to one
// shipped point — status, content type and body — and checks the
// decision runPoint takes on what shipPoint decodes: it never panics;
// it completes a point only on a 200 envelope holding a decoded result
// and no error, and always on one; it fails a point terminally only on
// a typed error other than queue_full or shutting_down, never on load
// shedding, an untyped error or an undecodable reply; and a 200
// envelope carrying neither a point nor an error is retried.
func FuzzPointReply(f *testing.F) {
	env := func(e server.Envelope) []byte {
		b, _ := json.Marshal(e)
		return b
	}
	point := &experiments.PointResult{Index: 0, Cycles: 1007}
	apiErr := func(code, msg string) *server.APIError { return &server.APIError{Code: code, Message: msg} }
	good := env(server.Envelope{Point: point})
	for _, seed := range []struct {
		status int
		ctype  string
		body   []byte
	}{
		{200, "application/json", good},
		{200, "application/json", env(server.Envelope{Point: point, Cached: true})},
		{200, server.NDJSONContentType, good},
		{400, "application/json", env(server.Envelope{Error: apiErr(server.CodeBadRequest, "missing point spec")})},
		{503, "application/json", env(server.Envelope{Error: apiErr(server.CodeQueueFull, "point admission saturated")})},
		{503, "application/json", env(server.Envelope{Error: apiErr(server.CodeShuttingDown, "server is shutting down")})},
		{500, "application/json", env(server.Envelope{Error: apiErr(server.CodePanic, "point panicked")})},
		{504, "application/json", env(server.Envelope{Error: apiErr(server.CodeTimeout, "point exceeded its deadline")})},
		{200, "application/json", env(server.Envelope{Version: server.APIVersion})},
		{200, "application/json", env(server.Envelope{Point: point, Error: apiErr(server.CodeQueueFull, "shed")})},
		{200, "application/json", env(server.Envelope{Error: apiErr("", "untyped")})},
		{500, "application/json", good},
		{200, "application/json", good[:len(good)-5]},
		{200, "text/plain", nil},
	} {
		f.Add(seed.status, seed.ctype, seed.body)
	}

	type reply struct {
		status int
		ctype  string
		body   []byte
	}
	var mu sync.Mutex
	var cur reply
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		rp := cur
		mu.Unlock()
		w.Header().Set("Content-Type", rp.ctype)
		w.WriteHeader(rp.status)
		w.Write(rp.body)
	}))
	defer ts.Close()
	c, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	spec := experiments.PointSpec{Experiment: "fuzz", Index: 0}

	f.Fuzz(func(t *testing.T, status int, ctype string, body []byte) {
		status = 200 + int(uint(status)%400) // a final status: 2xx to 5xx
		mu.Lock()
		cur = reply{status, ctype, body}
		mu.Unlock()
		res, cached, err := c.shipPoint(ts.URL, fmt.Sprintf("%064d", 0), spec)

		var sent server.Envelope
		if status == http.StatusNoContent || status == http.StatusNotModified {
			body = nil // the status carries no body
		}
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&sent) == nil
		goodReply := status == http.StatusOK && decoded && sent.Point != nil && sent.Error == nil
		switch {
		case err == nil && !goodReply:
			t.Fatalf("status %d body %q: completed without a decoded result", status, body)
		case err == nil && (!reflect.DeepEqual(res, *sent.Point) || cached != sent.Cached):
			t.Fatalf("status %d body %q: completed with %+v cached=%v, the reply says %+v cached=%v",
				status, body, res, cached, *sent.Point, sent.Cached)
		case err != nil && goodReply:
			t.Fatalf("status %d body %q: a good reply did not complete: %v", status, body, err)
		}
		if code := server.ExplicitCode(err); terminalCode(code) {
			if !decoded || sent.Error == nil || sent.Error.Code != code {
				t.Fatalf("status %d body %q: failed terminally with %q, which the reply does not carry", status, body, code)
			}
			switch code {
			case server.CodeQueueFull, server.CodeShuttingDown:
				t.Fatalf("status %d body %q: load shedding failed the point terminally", status, body)
			}
		}
		if status == http.StatusOK && decoded && sent.Point == nil && sent.Error == nil && err == nil {
			t.Fatalf("body %q: an envelope with neither point nor error completed", body)
		}
	})
}

package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/server"
)

// fakeResult is a minimal Renderable for injected test experiments.
type fakeResult struct {
	Value string `json:"value"`
}

func (f fakeResult) Render(w io.Writer) { fmt.Fprintln(w, f.Value) }

// syntheticExperiment is the registry entry of a synthetic sweep,
// registering a one-point sweep under name when the test registered
// none (registerSweep).
func syntheticExperiment(name string) experiments.Experiment {
	if !experiments.Decomposable(name) {
		registerSweep(name, 1, nil)
	}
	return experiments.Decomposed(name, "synthetic test sweep")
}

// registerSweep installs a cheap decomposition: points points, each
// resolved by fn (nil = deterministic arithmetic from the spec).
func registerSweep(name string, points int, fn func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error)) {
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
			return fakeResult{Value: fmt.Sprintf("%s total=%d", name, total)}, nil
		},
	})
}

// newWorker boots a cascade-server worker over httptest and returns its
// base URL plus a shutdown func.
func newWorker(t testing.TB, cacheDir string) (string, func()) {
	t.Helper()
	s, err := server.New(server.Config{Workers: 4, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return ts.URL, func() {
		ts.CloseClientConnections()
		ts.Close()
		s.Shutdown(context.Background())
	}
}

// expectedRender is the byte-exact single-node answer for a synthetic
// sweep: run the decomposition locally and render canonically.
func expectedRender(t testing.TB, name string, p server.JobParams) []byte {
	t.Helper()
	res, ok, err := experiments.RunDecomposed(context.Background(), name, p.WithDefaults().RunConfig())
	if err != nil || !ok {
		t.Fatalf("single-node run of %s: ok=%v err=%v", name, ok, err)
	}
	val, err := server.RenderJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return val
}

func awaitDone(t testing.TB, c *Coordinator, id string) server.JobView {
	t.Helper()
	v, ok := c.Await(id, 30*time.Second, nil)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if v.State != server.StateDone {
		t.Fatalf("job %s finished %s: %s (%s)", id, v.State, v.Error, v.ErrorCode)
	}
	return v
}

// TestShardedSweepByteIdentity is the fabric's core contract: a sweep
// sharded across two workers merges to exactly the bytes a single-node
// run produces, and resubmitting answers from the merged-result cache.
func TestShardedSweepByteIdentity(t *testing.T) {
	registerSweep("fab-basic", 9, nil)
	urlA, stopA := newWorker(t, "")
	defer stopA()
	urlB, stopB := newWorker(t, "")
	defer stopB()

	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment("fab-basic")},
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("a", urlA)
	c.Register("b", urlB)

	p := server.JobParams{N: 5}
	v, err := c.Submit("", "fab-basic", p)
	if err != nil {
		t.Fatal(err)
	}
	v = awaitDone(t, c, v.ID)
	want := expectedRender(t, "fab-basic", p)
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("sharded result differs from single-node run:\n got: %q\nwant: %q", v.Result, want)
	}

	snap := c.Metrics()
	if got := snap.Get(mPointsCompleted); got != 9 {
		t.Fatalf("points completed = %d, want 9", got)
	}
	if a, cmp, rt, f := snap.Get(mPointsAssigned), snap.Get(mPointsCompleted), snap.Get(mPointsRetried), snap.Get(mPointsFailed); a != cmp+rt+f {
		t.Fatalf("conservation violated: assigned %d != completed %d + retried %d + failed %d", a, cmp, rt, f)
	}

	// Resubmit: answered from the merged-result cache without dispatch.
	v2, err := c.Submit("", "fab-basic", p)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || v2.State != server.StateDone {
		t.Fatalf("resubmit not cache-answered: cached=%v state=%s", v2.Cached, v2.State)
	}
	if !bytes.Equal(v2.Result, want) {
		t.Fatal("cached result bytes differ")
	}
	if got := c.Metrics().Get(mJobsCacheHits); got != 1 {
		t.Fatalf("jobs.cache_hits = %d, want 1", got)
	}
}

// TestAssignFaultRetry pins deterministic lease-loss recovery: an armed
// fabric.assign fault kills the first dispatch before the RPC, and the
// point is reassigned — the injected counterpart of a worker dying at
// assignment.
func TestAssignFaultRetry(t *testing.T) {
	registerSweep("fab-fault", 4, nil)
	url, stop := newWorker(t, "")
	defer stop()

	inj := faults.New(1)
	inj.Arm(SiteAssign, faults.Trigger{OnCall: 1})
	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment("fab-fault")},
		Faults:       inj,
		RetryBackoff: time.Millisecond,
		MaxInflight:  1, // serialize so OnCall:1 hits a real dispatch deterministically
		Batch:        1, // one point per lease so the fault costs exactly one retry
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)

	p := server.JobParams{N: 3}
	v, err := c.Submit("", "fab-fault", p)
	if err != nil {
		t.Fatal(err)
	}
	v = awaitDone(t, c, v.ID)
	if want := expectedRender(t, "fab-fault", p); !bytes.Equal(v.Result, want) {
		t.Fatal("result differs from single-node run after injected dispatch fault")
	}
	snap := c.Metrics()
	if got := snap.Get(mPointsRetried); got != 1 {
		t.Fatalf("points.retried = %d, want exactly 1 (OnCall:1 trigger)", got)
	}
	if a, cmp, rt, f := snap.Get(mPointsAssigned), snap.Get(mPointsCompleted), snap.Get(mPointsRetried), snap.Get(mPointsFailed); a != cmp+rt+f {
		t.Fatalf("conservation violated: assigned %d != completed %d + retried %d + failed %d", a, cmp, rt, f)
	}
}

// TestChaosWorkerDeathMidSweep is the multi-node chaos test: a
// coordinator and two enlisted workers share one cache directory, one
// worker is killed mid-sweep, and the sweep must still complete with
//
//   - point-level retry observable in fabric.points.retried,
//   - the conservation identity intact,
//   - the merged result byte-identical to a single-node run,
//   - the death observable in fabric.workers.deaths.
func TestChaosWorkerDeathMidSweep(t *testing.T) {
	const points = 16
	var slow atomic.Bool
	slow.Store(true)
	registerSweep("fab-chaos", points, func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		if slow.Load() {
			time.Sleep(30 * time.Millisecond) // keep the sweep in flight while we kill a worker
		}
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
	})

	cacheDir := t.TempDir() // shared by both workers and the coordinator
	urlA, stopA := newWorker(t, cacheDir)
	urlB, stopB := newWorker(t, cacheDir)
	defer stopB()

	c, err := New(Config{
		Experiments:      []experiments.Experiment{syntheticExperiment("fab-chaos")},
		CacheDir:         cacheDir,
		HeartbeatTimeout: 300 * time.Millisecond,
		RetryBackoff:     5 * time.Millisecond,
		MaxPointAttempts: 16,
		MaxInflight:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	// Enlist both workers with live heartbeats, as a real fleet would.
	// Register directly as well so the sweep is not racing the first
	// heartbeat (registration and heartbeat are the same call).
	enlistCtx, stopEnlist := context.WithCancel(context.Background())
	defer stopEnlist()
	ctxA, killA := context.WithCancel(enlistCtx)
	for _, w := range []struct {
		ctx  context.Context
		name string
		url  string
	}{{ctxA, "a", urlA}, {enlistCtx, "b", urlB}} {
		c.Register(w.name, w.url)
		go Enlist(w.ctx, EnlistConfig{
			Coordinator: cts.URL, Name: w.name, Advertise: w.url, Interval: 50 * time.Millisecond,
		})
	}

	p := server.JobParams{N: 7}
	v, err := c.Submit("", "fab-chaos", p)
	if err != nil {
		t.Fatal(err)
	}

	// Kill worker A once the sweep is demonstrably in flight.
	deadline := time.Now().Add(5 * time.Second)
	for c.Metrics().Get(mPointsCompleted) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started completing points")
		}
		time.Sleep(5 * time.Millisecond)
	}
	killA()
	stopA() // closes client connections: in-flight leases on A die now
	slow.Store(false)

	v = awaitDone(t, c, v.ID)
	if want := expectedRender(t, "fab-chaos", p); !bytes.Equal(v.Result, want) {
		t.Fatalf("merged result after worker death differs from single-node run:\n got: %q\nwant: %q", v.Result, want)
	}

	snap := c.Metrics()
	if got := snap.Get(mPointsRetried); got == 0 {
		t.Fatal("worker death lost no lease: fabric.points.retried = 0")
	}
	if got := snap.Get(mPointsFailed); got != 0 {
		t.Fatalf("points.failed = %d, want 0 (death must retry, not fail)", got)
	}
	if a, cmp, rt, f := snap.Get(mPointsAssigned), snap.Get(mPointsCompleted), snap.Get(mPointsRetried), snap.Get(mPointsFailed); a != cmp+rt+f {
		t.Fatalf("conservation violated: assigned %d != completed %d + retried %d + failed %d", a, cmp, rt, f)
	}

	// The reaper must eventually declare A dead (its heartbeats stopped),
	// leaving B the only live worker. On a loaded host B's 50ms heartbeats
	// can miss the window and flap B dead and back, so wait for that
	// settled state, not for the first death.
	deadline = time.Now().Add(5 * time.Second)
	for {
		a, _ := workerByName(c, "a")
		if !a.Alive && c.Metrics().Get(mWorkersAlive) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker A never declared dead with B alone alive: a.alive=%v workers.alive=%d",
				a.Alive, c.Metrics().Get(mWorkersAlive))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if c.Metrics().Get(mWorkersDeaths) == 0 {
		t.Fatal("worker A's death was not counted in workers.deaths")
	}
}

// TestCrossNodeCacheHits pins the shared-result protocol: a second
// coordinator with a cold index, pointed at a worker that already
// computed a sweep, gets every point answered from the worker's cache —
// observable in fabric.cache.remote_hits.
func TestCrossNodeCacheHits(t *testing.T) {
	const points = 5
	registerSweep("fab-xcache", points, nil)
	url, stop := newWorker(t, t.TempDir())
	defer stop()

	p := server.JobParams{N: 11}
	want := expectedRender(t, "fab-xcache", p)

	run := func() (*Coordinator, server.JobView) {
		c, err := New(Config{
			Experiments:  []experiments.Experiment{syntheticExperiment("fab-xcache")},
			RetryBackoff: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Register("w", url)
		v, err := c.Submit("", "fab-xcache", p)
		if err != nil {
			t.Fatal(err)
		}
		return c, awaitDone(t, c, v.ID)
	}

	c1, v1 := run()
	defer c1.Shutdown(context.Background())
	if got := c1.Metrics().Get(mCacheRemoteHits); got != 0 {
		t.Fatalf("first run saw %d remote hits, want 0", got)
	}

	c2, v2 := run() // cold coordinator, warm worker
	defer c2.Shutdown(context.Background())
	if got := c2.Metrics().Get(mCacheRemoteHits); got != points {
		t.Fatalf("cache.remote_hits = %d, want %d (all points warm on the worker)", got, points)
	}
	if !bytes.Equal(v1.Result, want) || !bytes.Equal(v2.Result, want) {
		t.Fatal("cross-node cached results differ from single-node run")
	}
}

// TestGalleryJobSharded pins that a study without sweep-shaped points
// shards like a sweep: a gallery job runs one point per (machine,
// kernel) across two workers and merges to the single-node bytes.
func TestGalleryJobSharded(t *testing.T) {
	url1, stop1 := newWorker(t, "")
	defer stop1()
	url2, stop2 := newWorker(t, "")
	defer stop2()
	c, err := New(Config{RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.RegisterSlots("w1", url1, 2)
	c.RegisterSlots("w2", url2, 2)

	p := server.JobParams{N: 8192}.WithDefaults()
	v, err := c.Submit("", "gallery", p)
	if err != nil {
		t.Fatal(err)
	}
	v = awaitDone(t, c, v.ID)
	if want := expectedRender(t, "gallery", p); !bytes.Equal(v.Result, want) {
		t.Fatalf("sharded gallery differs from the single-node run:\n got %d bytes\nwant %d bytes", len(v.Result), len(want))
	}
	specs, _ := experiments.Decompose("gallery", p.RunConfig())
	if got := c.Metrics().Get(mPointsCompleted); len(specs) < 2 || got != int64(len(specs)) {
		t.Fatalf("points.completed = %d, want one per point (%d)", got, len(specs))
	}
	checkConservation(t, c)
}

// TestReaperAndRevival drives death detection directly: a silent worker
// is reaped, it leaves the live set dispatch picks from, and a fresh
// heartbeat revives it.
func TestReaperAndRevival(t *testing.T) {
	c, err := New(Config{
		Experiments:      []experiments.Experiment{syntheticExperiment("fab-reap")},
		HeartbeatTimeout: time.Hour, // reaper ticks are irrelevant; we drive reapOnce by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	c.Register("w1", "http://w1")
	c.Register("w2", "http://w2")
	if got := c.Metrics().Get(mWorkersAlive); got != 2 {
		t.Fatalf("alive = %d, want 2", got)
	}

	c.reapOnce(time.Now().Add(2 * time.Hour))
	ws := c.Workers()
	if len(ws) != 2 || ws[0].Alive || ws[1].Alive {
		t.Fatalf("workers not reaped: %+v", ws)
	}
	if got := c.Metrics().Get(mWorkersDeaths); got != 2 {
		t.Fatalf("deaths = %d, want 2", got)
	}
	c.mu.Lock()
	live := append([]string(nil), c.live...)
	c.mu.Unlock()
	if len(live) != 0 {
		t.Fatalf("dead workers still live: %v", live)
	}

	c.Register("w1", "http://w1-new") // revival, possibly at a new address
	s, err := c.acquireSlot("")
	if err != nil || s.name != "w1" || s.url != "http://w1-new" {
		t.Fatalf("slot after revival = %+v, %v; want w1 at its new URL", s, err)
	}
	c.releaseSlot(s)
}

// httpSubmit posts a job to a coordinator's HTTP API under a tenant.
func httpSubmit(t *testing.T, base, tenant, experiment string, p server.JobParams) (int, server.Envelope) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"experiment": experiment, "params": p})
	req, _ := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.VersionHeader, server.APIVersion)
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env server.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, env
}

// TestQuotaAdmission pins per-tenant admission control over HTTP: a
// tenant at its in-flight quota gets 429 quota_exceeded while another
// tenant (with a larger per-tenant override) is still admitted, and
// finishing a job frees the slot.
func TestQuotaAdmission(t *testing.T) {
	registerSweep("fab-quota", 3, nil)
	c, err := New(Config{
		Experiments:      []experiments.Experiment{syntheticExperiment("fab-quota")},
		DefaultQuota:     1,
		Quotas:           map[string]int{"gold": 2},
		RetryBackoff:     5 * time.Millisecond,
		MaxPointAttempts: 1000, // jobs must outlive the fleet's empty phase
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// No workers yet: submissions are admitted and wait for the fleet.
	status, env := httpSubmit(t, ts.URL, "t1", "fab-quota", server.JobParams{N: 1})
	if status != http.StatusAccepted || env.Job == nil {
		t.Fatalf("first submit: status %d env %+v", status, env)
	}
	firstID := env.Job.ID

	status, env = httpSubmit(t, ts.URL, "t1", "fab-quota", server.JobParams{N: 2})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", status)
	}
	if env.Error == nil || env.Error.Code != server.CodeQuotaExceeded {
		t.Fatalf("over-quota submit: error %+v, want code %s", env.Error, server.CodeQuotaExceeded)
	}

	// The gold tenant's override admits two.
	var goldIDs []string
	for i, n := range []int{3, 4} {
		status, env = httpSubmit(t, ts.URL, "gold", "fab-quota", server.JobParams{N: n})
		if status != http.StatusAccepted || env.Job == nil {
			t.Fatalf("gold submit %d: status %d, want 202", i, status)
		}
		goldIDs = append(goldIDs, env.Job.ID)
	}
	if status, _ = httpSubmit(t, ts.URL, "gold", "fab-quota", server.JobParams{N: 5}); status != http.StatusTooManyRequests {
		t.Fatalf("gold over-quota submit: status %d, want 429", status)
	}
	if got := c.Metrics().Get(mJobsQuotaRejected); got != 2 {
		t.Fatalf("quota_rejected = %d, want 2", got)
	}

	// A worker joins; the waiting jobs drain; t1's slot frees.
	url, stop := newWorker(t, "")
	defer stop()
	c.Register("w", url)
	if v := awaitDone(t, c, firstID); v.ID != firstID {
		t.Fatal("wrong job")
	}
	status, env = httpSubmit(t, ts.URL, "t1", "fab-quota", server.JobParams{N: 1})
	if status != http.StatusOK || env.Job == nil || !env.Job.Cached {
		t.Fatalf("post-drain resubmit: status %d cached=%v, want 200 from cache", status, env.Job != nil && env.Job.Cached)
	}
	// Drain the gold jobs too before the worker stops: a job left in
	// flight would retry its points against a dead worker and hold up
	// the deferred Shutdown.
	for _, id := range goldIDs {
		awaitDone(t, c, id)
	}
}

// TestCoordinatorStreaming pins the coordinator's ndjson ?wait: with a
// sweep half-gated, keep-alive frames carry live point progress before
// the final merged envelope arrives.
func TestCoordinatorStreaming(t *testing.T) {
	const points = 6
	release := make(chan struct{})
	registerSweep("fab-stream", points, func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		if ps.Index >= points/2 {
			select {
			case <-release:
			case <-ctx.Done():
				return experiments.PointResult{}, ctx.Err()
			}
		}
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index)}, nil
	})
	url, stop := newWorker(t, "")
	defer stop()
	c, err := New(Config{
		Experiments:      []experiments.Experiment{syntheticExperiment("fab-stream")},
		RetryBackoff:     5 * time.Millisecond,
		ProgressInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	_, env := httpSubmit(t, ts.URL, "", "fab-stream", server.JobParams{N: 2})
	if env.Job == nil {
		t.Fatal("submit returned no job")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+env.Job.ID+"?wait=10s", nil)
	req.Header.Set(server.VersionHeader, server.APIVersion)
	req.Header.Set("Accept", server.NDJSONContentType)
	go func() {
		time.Sleep(60 * time.Millisecond)
		close(release)
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != server.NDJSONContentType {
		t.Fatalf("Content-Type = %q", ct)
	}

	var frames []server.Envelope
	var sawPartial bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "\n") || line == "" {
			t.Fatalf("frame not a single line: %q", line)
		}
		var f server.Envelope
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		if f.Progress != nil && f.Progress.PointsDone > 0 && f.Progress.PointsDone < f.Progress.PointsTotal {
			sawPartial = true
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want keep-alives plus a final envelope", len(frames))
	}
	if !sawPartial {
		t.Fatal("no keep-alive frame carried mid-sweep progress (0 < done < total)")
	}
	final := frames[len(frames)-1]
	if final.Job == nil || final.Job.State != server.StateDone || final.Error != nil {
		t.Fatalf("final frame not a done job: %+v", final)
	}
	if want := expectedRender(t, "fab-stream", server.JobParams{N: 2}); !jsonEqualCompact(t, final.Result, want) {
		t.Fatal("streamed final result differs from single-node run")
	}
}

// jsonEqualCompact compares two JSON payloads structurally (streamed
// frames are compacted; cache bytes are indented).
func jsonEqualCompact(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatalf("bad JSON %q: %v", a, err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatalf("bad JSON %q: %v", b, err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// TestEnlistHeartbeats pins the worker-side membership loop against a
// real coordinator endpoint: registration appears, LastSeen advances,
// and cancelling the context stops the loop.
func TestEnlistHeartbeats(t *testing.T) {
	c, err := New(Config{Experiments: []experiments.Experiment{syntheticExperiment("fab-enlist")}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Enlist(ctx, EnlistConfig{
			Coordinator: ts.URL, Name: "hb", Advertise: "http://hb:1", Interval: 10 * time.Millisecond,
		})
	}()

	deadline := time.Now().Add(5 * time.Second)
	var first time.Time
	for {
		if ws := c.Workers(); len(ws) == 1 && ws[0].Alive {
			first = ws[0].LastSeen
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never enlisted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		if ws := c.Workers(); ws[0].LastSeen.After(first) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never advanced LastSeen")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Enlist returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Enlist did not stop on cancel")
	}
}

// TestCacheProbeEndpoint pins the shared result-index protocol: the
// coordinator serves cached bytes verbatim by content address and 404s
// on misses.
func TestCacheProbeEndpoint(t *testing.T) {
	registerSweep("fab-probe", 2, nil)
	url, stop := newWorker(t, "")
	defer stop()
	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment("fab-probe")},
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	p := server.JobParams{N: 9}
	v, err := c.Submit("", "fab-probe", p)
	if err != nil {
		t.Fatal(err)
	}
	v = awaitDone(t, c, v.ID)

	resp, err := http.Get(ts.URL + "/v1/cache/" + v.Key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, []byte(v.Result)) {
		t.Fatalf("cache probe: status %d, bytes match %v", resp.StatusCode, bytes.Equal(got, []byte(v.Result)))
	}

	resp, err = http.Get(ts.URL + "/v1/cache/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing key: status %d, want 404", resp.StatusCode)
	}
}

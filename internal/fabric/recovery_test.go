package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/faults"
	"repro/internal/server"
)

// swappableHandler gives a fleet one stable coordinator URL across
// coordinator incarnations: the httptest server stays up while the
// handler behind it is swapped from C1 to "down" to C2 — the test-rig
// equivalent of a daemon restarting behind a fixed address.
type swappableHandler struct{ h atomic.Value }

// hbox keeps atomic.Value's concrete type stable across swaps between
// different handler implementations.
type hbox struct{ h http.Handler }

func newSwappable(h http.Handler) *swappableHandler {
	s := &swappableHandler{}
	s.swap(h)
	return s
}

func (s *swappableHandler) swap(h http.Handler) { s.h.Store(hbox{h}) }

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(hbox).h.ServeHTTP(w, r)
}

// coordinatorDown is the handler between incarnations: every request
// fails the way a dead process's address does (as close as a handler
// can get — connection refused is not expressible here).
var coordinatorDown = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "coordinator down", http.StatusServiceUnavailable)
})

// TestChaosCoordinatorKillMidSweep is the durability chaos test: the
// coordinator is killed mid-sweep — journal fenced without a final
// sync, no drain, exactly as a crash — and a second incarnation against
// the same journal and cache directories must
//
//   - re-adopt the in-flight job under its original id and finish it
//     byte-identical to a single-node run,
//   - preserve the journal conservation identity across the restart
//     (every assigned record has exactly one outcome record),
//   - never journal a point's completion twice (epoch fencing),
//   - come up with a bumped epoch and the recovery observable in the
//     fabric.jobs.recovered / fabric.points.recovered counters, and
//   - keep both runtime fleet identities — jobs (the re-adopted job
//     counts as recovered, not submitted) and points — so /healthz
//     answers ok.
func TestChaosCoordinatorKillMidSweep(t *testing.T) {
	const points = 24
	var slow atomic.Bool
	slow.Store(true)
	registerSweep("fab-durable", points, func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		if slow.Load() {
			time.Sleep(50 * time.Millisecond) // keep leases in flight while C1 dies
		}
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
	})

	cacheDir := t.TempDir()   // shared by workers and both incarnations
	journalDir := t.TempDir() // survives the crash

	urlA, stopA := newWorker(t, cacheDir)
	defer stopA()
	urlB, stopB := newWorker(t, cacheDir)
	defer stopB()

	newCoordinator := func() *Coordinator {
		c, err := New(Config{
			Experiments:      []experiments.Experiment{syntheticExperiment("fab-durable")},
			CacheDir:         cacheDir,
			JournalDir:       journalDir,
			HeartbeatTimeout: 500 * time.Millisecond,
			RetryBackoff:     5 * time.Millisecond,
			MaxPointAttempts: 64,
			MaxInflight:      4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := newCoordinator()

	// One stable coordinator URL for the fleet, outliving C1.
	front := newSwappable(c1.Handler())
	cts := httptest.NewServer(front)
	defer cts.Close()

	enlistCtx, stopEnlist := context.WithCancel(context.Background())
	defer stopEnlist()
	for name, url := range map[string]string{"a": urlA, "b": urlB} {
		c1.Register(name, url) // don't race the sweep against the first heartbeat
		go Enlist(enlistCtx, EnlistConfig{
			Coordinator: cts.URL, Name: name, Advertise: url, Interval: 25 * time.Millisecond,
		})
	}

	p := server.JobParams{N: 7}
	v, err := c1.Submit("", "fab-durable", p)
	if err != nil {
		t.Fatal(err)
	}
	jobID := v.ID

	// Kill C1 once progress is real AND leases are demonstrably open:
	// completed points exist, and assigned exceeds settled outcomes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := c1.Metrics()
		settled := snap.Get(mPointsCompleted) + snap.Get(mPointsRetried) + snap.Get(mPointsFailed)
		if snap.Get(mPointsCompleted) >= 3 && snap.Get(mPointsAssigned) > settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached the kill window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	front.swap(coordinatorDown)
	c1.Kill()

	// The crash left the journal with open leases: assigned records from
	// epoch 1 with no outcome.
	recs, _, err := journal.Read(journal.Path(journalDir))
	if err != nil {
		t.Fatalf("reading journal after kill: %v", err)
	}
	counts := countRecords(recs, jobID)
	if counts.assigned <= counts.completed+counts.retried+counts.failed {
		t.Fatalf("kill left no open leases to fence: %+v", counts)
	}
	if counts.merged != 0 {
		t.Fatal("job journaled as merged before it finished")
	}

	// Second incarnation: same dirs, bumped epoch, job re-adopted.
	slow.Store(false)
	c2 := newCoordinator()
	defer c2.Shutdown(context.Background())
	front.swap(c2.Handler())

	if got := c2.Epoch(); got != 2 {
		t.Fatalf("recovered epoch = %d, want 2", got)
	}
	snap := c2.Metrics()
	if got := snap.Get(mJobsRecovered); got != 1 {
		t.Fatalf("jobs.recovered = %d, want 1", got)
	}
	if got := snap.Get(mPointsRecovered); got == 0 {
		t.Fatal("no completed point survived recovery (points.recovered = 0)")
	}
	if got := snap.Get(mPointsFenced); got == 0 {
		t.Fatal("open leases were not fenced (points.fenced = 0)")
	}

	v2, ok := c2.Await(jobID, 30*time.Second, nil)
	if !ok {
		t.Fatalf("job %s not re-adopted by the second incarnation", jobID)
	}
	if v2.State != server.StateDone {
		t.Fatalf("re-adopted job finished %s: %s (%s)", v2.State, v2.Error, v2.ErrorCode)
	}
	if want := expectedRender(t, "fab-durable", p); !bytes.Equal(v2.Result, want) {
		t.Fatalf("result after crash recovery differs from single-node run:\n got: %q\nwant: %q", v2.Result, want)
	}
	snap = c2.Metrics()
	if in, out := snap.Get(mJobsSubmitted)+snap.Get(mJobsRecovered), snap.Get(mJobsCompleted)+snap.Get(mJobsFailed); in != out {
		t.Fatalf("job identity broken by recovery: submitted+recovered %d != completed+failed %d", in, out)
	}
	checkConservation(t, c2)
	if body := healthz(c2); body != "ok" {
		t.Fatalf("healthz after recovery = %q, want ok", body)
	}

	// Journal accounting across both incarnations: conservation restored
	// (recovery fenced every orphan), exactly one merge, and no point
	// ever completed twice.
	recs, _, err = journal.Read(journal.Path(journalDir))
	if err != nil {
		t.Fatalf("reading journal after recovery: %v", err)
	}
	counts = countRecords(recs, jobID)
	if counts.assigned != counts.completed+counts.retried+counts.failed {
		t.Fatalf("conservation violated across restart: assigned %d != completed %d + retried %d + failed %d",
			counts.assigned, counts.completed, counts.retried, counts.failed)
	}
	if counts.merged != 1 {
		t.Fatalf("job_merged records = %d, want exactly 1", counts.merged)
	}
	for idx, n := range counts.completedByIndex {
		if n > 1 {
			t.Fatalf("point %d journaled completed %d times — double merge", idx, n)
		}
	}
	if epochs := countEpochs(recs); epochs[1] != 0 {
		// Compaction rewrote the log under epoch 2; stale epoch-1
		// assignments may legitimately remain (they were fenced), but no
		// epoch-1 *epoch record* should survive.
		t.Fatalf("epoch-1 epoch record survived compaction (%d)", epochs[1])
	}
}

// recordCounts aggregates one job's journal records.
type recordCounts struct {
	assigned, completed, retried, failed, merged int
	completedByIndex                             map[int]int
}

func countRecords(recs []journal.Record, jobID string) recordCounts {
	c := recordCounts{completedByIndex: make(map[int]int)}
	for _, r := range recs {
		if r.Job != jobID {
			continue
		}
		switch r.Type {
		case journal.TypePointAssigned:
			c.assigned++
		case journal.TypePointCompleted:
			c.completed++
			c.completedByIndex[r.Index]++
		case journal.TypePointRetried:
			c.retried++
		case journal.TypePointFailed:
			c.failed++
		case journal.TypeJobMerged:
			c.merged++
		}
	}
	return c
}

func countEpochs(recs []journal.Record) map[uint64]int {
	out := make(map[uint64]int)
	for _, r := range recs {
		if r.Type == journal.TypeEpoch {
			out[r.Epoch]++
		}
	}
	return out
}

// TestEnlistEpochResync pins the worker side of partition tolerance: an
// enlisted worker's heartbeat loop survives a coordinator restart —
// backing off while the coordinator is down, re-enlisting on its own
// when it returns, and reporting the epoch bump through OnEpochChange.
func TestEnlistEpochResync(t *testing.T) {
	journalDir := t.TempDir()
	newCoordinator := func() *Coordinator {
		c, err := New(Config{
			Experiments: []experiments.Experiment{syntheticExperiment("fab-resync")},
			JournalDir:  journalDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := newCoordinator()

	front := newSwappable(c1.Handler())
	cts := httptest.NewServer(front)
	defer cts.Close()

	type bump struct{ prev, next uint64 }
	bumps := make(chan bump, 4)
	enlistCtx, stopEnlist := context.WithCancel(context.Background())
	defer stopEnlist()
	go Enlist(enlistCtx, EnlistConfig{
		Coordinator: cts.URL,
		Name:        "w",
		Advertise:   "http://w.invalid",
		Interval:    20 * time.Millisecond,
		OnEpochChange: func(prev, next uint64) {
			bumps <- bump{prev, next}
		},
	})

	waitRegistered := func(c *Coordinator) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			for _, w := range c.Workers() {
				if w.Name == "w" && w.Alive {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("worker never enlisted")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitRegistered(c1)

	// Crash and recover the coordinator behind the same URL.
	front.swap(coordinatorDown)
	c1.Kill()
	c2 := newCoordinator()
	defer c2.Shutdown(context.Background())
	if got := c2.Epoch(); got != 2 {
		t.Fatalf("second incarnation epoch = %d, want 2", got)
	}
	front.swap(c2.Handler())

	// The loop must re-enlist with C2 unassisted and observe 1 → 2.
	select {
	case b := <-bumps:
		if b.prev != 1 || b.next != 2 {
			t.Fatalf("epoch change %d → %d, want 1 → 2", b.prev, b.next)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnEpochChange never fired after coordinator restart")
	}
	waitRegistered(c2)
}

// TestQuotaRetryAfterHeader pins the load-shedding contract on 429
// quota_exceeded responses: a Retry-After hint rides along, so a capped
// tenant knows when resubmitting is worth it.
func TestQuotaRetryAfterHeader(t *testing.T) {
	registerSweep("fab-429", 2, nil)
	c, err := New(Config{
		Experiments:      []experiments.Experiment{syntheticExperiment("fab-429")},
		DefaultQuota:     1,
		RetryBackoff:     5 * time.Millisecond,
		MaxPointAttempts: 1000, // the in-flight job waits on an empty fleet
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// No workers: the first job is admitted and stays in flight, pinning
	// the tenant at its quota.
	if status, _ := httpSubmit(t, ts.URL, "t1", "fab-429", server.JobParams{N: 1}); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", status)
	}
	body, _ := json.Marshal(map[string]interface{}{"experiment": "fab-429", "params": server.JobParams{N: 2}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.VersionHeader, server.APIVersion)
	req.Header.Set(TenantHeader, "t1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want 5", got)
	}
	var env server.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != server.CodeQuotaExceeded {
		t.Fatalf("error = %+v, want code %s", env.Error, server.CodeQuotaExceeded)
	}

	// Release the stuck job by cancelling the run context (expired drain).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	c.Shutdown(ctx)
}

// TestFabricReproBundle pins the coordinator's failure forensics end to
// end: a sweep whose point 2 fails terminally yields a failed job whose
// repro bundle names that exact point, is served over GET
// /v1/jobs/{id}/repro as a bare document, and replays to the identical
// failure through server.RunRepro — the same path cascade-sim -repro
// drives.
func TestFabricReproBundle(t *testing.T) {
	const failMsg = "synthetic deterministic point failure"
	registerSweep("fab-repro", 5, func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		if ps.Index == 2 {
			return experiments.PointResult{}, errors.New(failMsg)
		}
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
	})
	url, stop := newWorker(t, "")
	defer stop()

	journalDir := t.TempDir()
	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment("fab-repro")},
		JournalDir:   journalDir,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)

	p := server.JobParams{N: 3}
	v, err := c.Submit("", "fab-repro", p)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = c.Await(v.ID, 30*time.Second, nil)
	if v.State != server.StateFailed {
		t.Fatalf("job finished %s, want failed", v.State)
	}

	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"/repro", nil)
	req.Header.Set(server.VersionHeader, server.APIVersion)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET repro: status %d, want 200", resp.StatusCode)
	}
	var b server.ReproBundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.Schema != canon.ReproSchema {
		t.Fatalf("bundle schema %q, want %q", b.Schema, canon.ReproSchema)
	}
	if b.Point == nil || b.Point.Index != 2 {
		t.Fatalf("bundle point = %+v, want the lowest failing index 2", b.Point)
	}
	if b.PointKey == "" || b.Error != failMsg || b.ErrorCode != server.CodeExperimentFailed {
		t.Fatalf("bundle forensics: key=%q error=%q code=%q", b.PointKey, b.Error, b.ErrorCode)
	}
	recorded := b.Key
	if derived, err := b.DeriveKey(); err != nil || derived != recorded {
		t.Fatalf("bundle key not reproducible: recorded %q derived %q (%v)", recorded, derived, err)
	}

	// Replay locally: the identical failure must come back.
	replayed := server.RunRepro(context.Background(), &b)
	if !b.SameFailure(replayed) {
		t.Fatalf("replay diverged: recorded %q (%s), replayed %v", b.Error, b.ErrorCode, replayed)
	}

	// A non-failed job has no bundle.
	if _, err := c.Repro("f404"); err == nil {
		t.Fatal("Repro of an unknown job did not error")
	}

	// And the failed job survives a restart with its bundle intact.
	c.Shutdown(context.Background())
	c2, err := New(Config{
		Experiments: []experiments.Experiment{syntheticExperiment("fab-repro")},
		JournalDir:  journalDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Shutdown(context.Background())
	v2, ok := c2.Job(v.ID)
	if !ok || v2.State != server.StateFailed || v2.ErrorCode != v.ErrorCode {
		t.Fatalf("failed job not rehydrated: ok=%v %+v", ok, v2)
	}
	raw, err := c2.Repro(v.ID)
	if err != nil {
		t.Fatalf("rehydrated repro: %v", err)
	}
	var b2 server.ReproBundle
	if err := json.Unmarshal(raw, &b2); err != nil {
		t.Fatal(err)
	}
	if b2.Key != recorded {
		t.Fatalf("rehydrated bundle key %q, want %q", b2.Key, recorded)
	}
	// Failed jobs must not be re-run on recovery.
	if got := c2.Metrics().Get(mJobsRecovered); got != 0 {
		t.Fatalf("jobs.recovered = %d, want 0 (terminal jobs rehydrate, not re-run)", got)
	}
}

// TestJournalAppendFaultDegrades pins journal-failure degradation: an
// armed fabric.journal fault tears an append mid-frame, the loss is
// counted in fabric.journal.errors, and the job still completes — the
// journal protects restarts, never the running job.
func TestJournalAppendFaultDegrades(t *testing.T) {
	registerSweep("fab-jfault", 3, nil)
	url, stop := newWorker(t, "")
	defer stop()

	inj := faults.New(1)
	inj.Arm(journal.SiteAppend, faults.Trigger{OnCall: 2})
	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment("fab-jfault")},
		JournalDir:   t.TempDir(),
		Faults:       inj,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)

	v, err := c.Submit("", "fab-jfault", server.JobParams{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	v = awaitDone(t, c, v.ID)
	if want := expectedRender(t, "fab-jfault", server.JobParams{N: 2}); !bytes.Equal(v.Result, want) {
		t.Fatal("result differs after journal append fault")
	}
	if got := c.Metrics().Get(mJournalErrors); got != 1 {
		t.Fatalf("journal.errors = %d, want 1", got)
	}
}

// TestFreshJournalOpensInPlace pins a fresh coordinator's start-up
// write: over a log with no records, recovery appends the epoch record
// in the log's own file instead of compacting it through a temp file
// and a rename, and the log then holds exactly that record.
func TestFreshJournalOpensInPlace(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journal.Path(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(journal.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Experiments: []experiments.Experiment{syntheticExperiment("fab-fresh")}, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	after, err := os.Stat(journal.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("a fresh journal was compacted into a new file")
	}
	recs, torn, err := journal.Read(journal.Path(dir))
	if err != nil || torn != 0 || len(recs) != 1 || recs[0].Type != journal.TypeEpoch || recs[0].Epoch != 1 {
		t.Fatalf("fresh journal holds %+v (%d torn bytes, %v), want one epoch-1 record", recs, torn, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("journal directory holds %d entries (%v), want the log alone", len(ents), err)
	}
}

// TestRecoveryLostPointCompletesOnce recovers a log holding one
// point_completed of a two-point job over an empty result cache. The
// lost point re-runs (fabric.points.recovery_lost), but its completion
// is journaled already: the job finishes with exactly one
// point_completed per point, and every lease closed.
func TestRecoveryLostPointCompletesOnce(t *testing.T) {
	const exp = "fab-recovery-lost"
	registerSweep(exp, 2, nil)
	url, stop := newWorker(t, "")
	defer stop()

	p := server.JobParams{N: 1}.WithDefaults()
	jk, err := server.JobKey(exp, p)
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := experiments.Decompose(exp, p.RunConfig())
	k0, err := canon.PointKey(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(p)
	dir := t.TempDir()
	jn, _, err := journal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(
		journal.Record{Type: journal.TypeEpoch, Epoch: 1},
		journal.Record{Type: journal.TypeJobAccepted, Job: "f1", Experiment: exp, Params: raw, Key: server.RenderKey(jk, "json")},
		journal.Record{Type: journal.TypePointAssigned, Job: "f1", Index: 0, Key: k0, Epoch: 1},
		journal.Record{Type: journal.TypePointCompleted, Job: "f1", Index: 0, Key: k0},
	); err != nil {
		t.Fatal(err)
	}
	jn.Close()

	c, err := New(Config{Experiments: []experiments.Experiment{syntheticExperiment(exp)},
		CacheDir: t.TempDir(), JournalDir: dir, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Register("w", url)
	v := awaitDone(t, c, "f1")
	if want := expectedRender(t, exp, p); !bytes.Equal(v.Result, want) {
		t.Fatalf("recovered result %q, want %q", v.Result, want)
	}
	if got := c.Metrics().Get(mPointsRecoveryLost); got != 1 {
		t.Fatalf("%s = %d, want 1", mPointsRecoveryLost, got)
	}
	checkConservation(t, c)
	c.Shutdown(context.Background())

	recs, _, err := journal.Read(journal.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	counts := countRecords(recs, "f1")
	if counts.completedByIndex[0] != 1 || counts.completedByIndex[1] != 1 || len(counts.completedByIndex) != 2 {
		t.Fatalf("point_completed per index = %v, want one for each of 0 and 1", counts.completedByIndex)
	}
	if counts.assigned != counts.completed+counts.retried+counts.failed {
		t.Fatalf("assigned %d != completed %d + retried %d + failed %d",
			counts.assigned, counts.completed, counts.retried, counts.failed)
	}
}

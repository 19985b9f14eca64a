package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
)

// slotWorker is an in-process cascade-server whose point endpoint sits
// behind a wrapping handler: it counts lease RPCs in flight (and their
// peak) and can delay or hold every lease.
type slotWorker struct {
	srv      *server.Server
	ts       *httptest.Server
	inflight atomic.Int64
	peak     atomic.Int64
	delay    time.Duration // added before each lease is served
	hold     atomic.Bool   // armed: leases block until the worker is stopped
	held     chan struct{} // signalled when a lease is held
	dead     chan struct{} // closed by stop
	stopOnce sync.Once
}

func newSlotWorker(t *testing.T, slots int, delay time.Duration) *slotWorker {
	t.Helper()
	s, err := server.New(server.Config{Workers: slots})
	if err != nil {
		t.Fatal(err)
	}
	w := &slotWorker{srv: s, delay: delay, held: make(chan struct{}, 1), dead: make(chan struct{})}
	inner := s.Handler()
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/points" {
			inner.ServeHTTP(rw, r)
			return
		}
		n := w.inflight.Add(1)
		defer w.inflight.Add(-1)
		for p := w.peak.Load(); n > p && !w.peak.CompareAndSwap(p, n); p = w.peak.Load() {
		}
		if w.hold.Load() {
			select {
			case w.held <- struct{}{}:
			default:
			}
			select {
			case <-r.Context().Done():
			case <-w.dead:
			}
			panic(http.ErrAbortHandler) // drop the connection mid-lease, as a dying process would
		}
		time.Sleep(w.delay)
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(w.stop)
	return w
}

// stop kills the worker: open lease connections reset, new ones are
// refused. Idempotent.
func (w *slotWorker) stop() {
	w.stopOnce.Do(func() {
		close(w.dead)
		w.ts.CloseClientConnections()
		w.ts.Close()
		w.srv.Shutdown(context.Background())
	})
}

func (w *slotWorker) executed() int64 { return w.srv.Metrics().Get("points.executed") }

func workerByName(c *Coordinator, name string) (workerRec, bool) {
	for _, w := range c.Workers() {
		if w.Name == name {
			return w, true
		}
	}
	return workerRec{}, false
}

func checkConservation(t *testing.T, c *Coordinator) {
	t.Helper()
	snap := c.Metrics()
	if a, cmp, rt, f := snap.Get(mPointsAssigned), snap.Get(mPointsCompleted), snap.Get(mPointsRetried), snap.Get(mPointsFailed); a != cmp+rt+f {
		t.Fatalf("conservation violated: assigned %d != completed %d + retried %d + failed %d", a, cmp, rt, f)
	}
	if healthz(c) == "degraded" {
		t.Fatal("the runtime conservation check fired on some transition")
	}
}

// healthz returns the coordinator's /healthz word.
func healthz(c *Coordinator) string {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	return strings.TrimSpace(rec.Body.String())
}

// TestCoordinatorConservationViolationDegrades forces a violation of
// each runtime fleet identity — a count that no job record or lease
// backs — and pins that the next transition catches it: /healthz turns
// from ok to degraded.
func TestCoordinatorConservationViolationDegrades(t *testing.T) {
	registerSweep("fab-unconserved", 3, nil)
	url, stop := newWorker(t, "")
	defer stop()
	for i, metric := range []string{mJobsSubmitted, mPointsAssigned} {
		t.Run(metric, func(t *testing.T) {
			m := metrics.NewSynced()
			c, err := New(Config{
				Experiments:  []experiments.Experiment{syntheticExperiment("fab-unconserved")},
				Metrics:      m,
				RetryBackoff: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown(context.Background())
			c.Register("w", url)
			if body := healthz(c); body != "ok" {
				t.Fatalf("healthz before the violation = %q, want ok", body)
			}
			m.Inc(metric)
			v, err := c.Submit("", "fab-unconserved", server.JobParams{N: 10 + i})
			if err != nil {
				t.Fatal(err)
			}
			awaitDone(t, c, v.ID)
			if body := healthz(c); body != "degraded" {
				t.Errorf("healthz after the violation = %q, want degraded", body)
			}
		})
	}
}

// TestSlotEnlistWire pins the slots field of the enlistment protocol: an
// absent count (an older worker) means one slot, a negative one is a 400
// bad_request that registers nothing, GET /v1/workers reports slots and
// busy, the slot gauges sum the live fleet, and Enlist advertises
// EnlistConfig.Slots.
func TestSlotEnlistWire(t *testing.T) {
	c, err := New(Config{Experiments: []experiments.Experiment{syntheticExperiment("fab-slot-wire")}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	post := func(body string) (int, server.Envelope) {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/workers", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env server.Envelope
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}
	if status, _ := post(`{"name":"old","url":"http://old"}`); status != http.StatusOK {
		t.Fatalf("enlist without slots: status %d, want 200", status)
	}
	if status, _ := post(`{"name":"big","url":"http://big","slots":3}`); status != http.StatusOK {
		t.Fatalf("enlist with slots: status %d, want 200", status)
	}
	status, env := post(`{"name":"bad","url":"http://bad","slots":-1}`)
	if status != http.StatusBadRequest || env.Error == nil || env.Error.Code != server.CodeBadRequest {
		t.Fatalf("negative slots: status %d error %+v, want 400 %s", status, env.Error, server.CodeBadRequest)
	}

	resp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Workers []struct {
			Name  string `json:"name"`
			Slots *int   `json:"slots"`
			Busy  *int   `json:"busy"`
		} `json:"workers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, w := range list.Workers {
		if w.Slots == nil || w.Busy == nil || *w.Busy != 0 {
			t.Fatalf("worker %q listed without slots/busy or busy while idle: %+v", w.Name, w)
		}
		got[w.Name] = *w.Slots
	}
	if len(got) != 2 || got["old"] != 1 || got["big"] != 3 {
		t.Fatalf("listed slots %v, want old=1 big=3 and no bad", got)
	}
	if snap := c.Metrics(); snap.Get(mSlotsTotal) != 4 || snap.Get(mSlotsBusy) != 0 {
		t.Fatalf("slot gauges total=%d busy=%d, want 4 and 0", snap.Get(mSlotsTotal), snap.Get(mSlotsBusy))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Enlist(ctx, EnlistConfig{Coordinator: ts.URL, Name: "hb", Advertise: "http://hb", Slots: 5,
		Interval: 10 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w, ok := workerByName(c, "hb"); ok && w.Slots == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Enlist never advertised its 5 slots")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlotDispatchBalances pins slot-aware pull dispatch: with a fast and
// a slow worker of two slots each, no worker ever has more lease RPCs in
// flight than it advertised, the fast worker pulls more of the sweep,
// and the merged bytes and conservation identity are unchanged.
func TestSlotDispatchBalances(t *testing.T) {
	const points, slots = 40, 2
	registerSweep("fab-slot-balance", points, func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		time.Sleep(2 * time.Millisecond)
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
	})
	fast := newSlotWorker(t, slots, 0)
	slow := newSlotWorker(t, slots, 30*time.Millisecond)

	c, err := New(Config{
		Experiments:  []experiments.Experiment{syntheticExperiment("fab-slot-balance")},
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.RegisterSlots("fast", fast.ts.URL, slots)
	c.RegisterSlots("slow", slow.ts.URL, slots)

	p := server.JobParams{N: 4}
	v, err := c.Submit("", "fab-slot-balance", p)
	if err != nil {
		t.Fatal(err)
	}
	v = awaitDone(t, c, v.ID)
	if want := expectedRender(t, "fab-slot-balance", p); !bytes.Equal(v.Result, want) {
		t.Fatalf("slot-dispatched result differs from single-node run:\n got: %q\nwant: %q", v.Result, want)
	}
	for name, w := range map[string]*slotWorker{"fast": fast, "slow": slow} {
		if peak := w.peak.Load(); peak > slots {
			t.Errorf("%s worker had %d lease RPCs in flight, advertised %d slots", name, peak, slots)
		}
	}
	if f, s := fast.executed(), slow.executed(); f <= s || f+s != points {
		t.Errorf("fast worker executed %d points, slow %d: want fast > slow, summing to %d", f, s, points)
	}
	checkConservation(t, c)
	if snap := c.Metrics(); snap.Get(mSlotsTotal) != 2*slots || snap.Get(mSlotsBusy) != 0 {
		t.Errorf("slot gauges after the sweep: total=%d busy=%d, want %d and 0",
			snap.Get(mSlotsTotal), snap.Get(mSlotsBusy), 2*slots)
	}
}

// TestSlotReleaseOnDeathAndShutdown pins slot accounting through worker
// death and coordinator shutdown: a worker that dies holding a lease
// gives its slot back, the survivor absorbs the whole remainder, the
// dead worker is dispatchable again once it re-registers, and Shutdown
// with dispatchers blocked waiting for a slot returns without leaving a
// coordinator goroutine behind.
func TestSlotReleaseOnDeathAndShutdown(t *testing.T) {
	const points = 12
	registerSweep("fab-slot-death", points, func(_ context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
		time.Sleep(10 * time.Millisecond)
		return experiments.PointResult{Index: ps.Index, Cycles: int64(1000 + ps.Index*7 + ps.N)}, nil
	})

	t.Run("death", func(t *testing.T) {
		a := newSlotWorker(t, 1, 0)
		b := newSlotWorker(t, 1, 0)
		c, err := New(Config{
			Experiments:      []experiments.Experiment{syntheticExperiment("fab-slot-death")},
			HeartbeatTimeout: 200 * time.Millisecond,
			RetryBackoff:     5 * time.Millisecond,
			MaxPointAttempts: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown(context.Background())
		cts := httptest.NewServer(c.Handler())
		defer cts.Close()
		enlistCtx, stopEnlist := context.WithCancel(context.Background())
		defer stopEnlist()
		ctxA, killA := context.WithCancel(enlistCtx)
		enlist := func(ctx context.Context, name, url string) {
			c.RegisterSlots(name, url, 1) // don't race the sweep against the first heartbeat
			go Enlist(ctx, EnlistConfig{Coordinator: cts.URL, Name: name, Advertise: url, Slots: 1,
				Interval: 20 * time.Millisecond})
		}
		enlist(ctxA, "a", a.ts.URL)
		enlist(enlistCtx, "b", b.ts.URL)

		// a accepts its first lease and never answers; kill it while it
		// holds the slot.
		a.hold.Store(true)
		p := server.JobParams{N: 5}
		v, err := c.Submit("", "fab-slot-death", p)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-a.held:
		case <-time.After(10 * time.Second):
			t.Fatal("worker a never received a lease")
		}
		killA()
		a.stop()

		v = awaitDone(t, c, v.ID)
		if want := expectedRender(t, "fab-slot-death", p); !bytes.Equal(v.Result, want) {
			t.Fatalf("result after mid-lease death differs from single-node run:\n got: %q\nwant: %q", v.Result, want)
		}
		if got := b.executed(); got != points {
			t.Fatalf("survivor executed %d points, want the whole sweep (%d)", got, points)
		}
		snap := c.Metrics()
		if snap.Get(mPointsRetried) == 0 || snap.Get(mPointsFailed) != 0 {
			t.Fatalf("retried=%d failed=%d, want the dead lease retried and nothing failed",
				snap.Get(mPointsRetried), snap.Get(mPointsFailed))
		}
		checkConservation(t, c)
		if w, _ := workerByName(c, "a"); w.Busy != 0 {
			t.Fatalf("dead worker's busy count leaked: %d", w.Busy)
		}

		deadline := time.Now().Add(5 * time.Second)
		for c.Metrics().Get(mWorkersDeaths) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("worker a was never declared dead")
			}
			time.Sleep(10 * time.Millisecond)
		}

		// a comes back under the same name at a new address and takes
		// leases again.
		a2 := newSlotWorker(t, 1, 0)
		enlist(enlistCtx, "a", a2.ts.URL)
		p2 := server.JobParams{N: 6}
		v, err = c.Submit("", "fab-slot-death", p2)
		if err != nil {
			t.Fatal(err)
		}
		v = awaitDone(t, c, v.ID)
		if want := expectedRender(t, "fab-slot-death", p2); !bytes.Equal(v.Result, want) {
			t.Fatal("result after re-registration differs from single-node run")
		}
		if a2.executed() == 0 {
			t.Fatal("re-registered worker was never dispatched to")
		}
		checkConservation(t, c)
		if snap := c.Metrics(); snap.Get(mSlotsTotal) != 2 || snap.Get(mSlotsBusy) != 0 {
			t.Fatalf("slot gauges: total=%d busy=%d, want 2 and 0", snap.Get(mSlotsTotal), snap.Get(mSlotsBusy))
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		w := newSlotWorker(t, 1, 0)
		w.hold.Store(true)
		c, err := New(Config{
			Experiments: []experiments.Experiment{syntheticExperiment("fab-slot-death")},
			MaxInflight: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterSlots("w", w.ts.URL, 1)
		v, err := c.Submit("", "fab-slot-death", server.JobParams{N: 7})
		if err != nil {
			t.Fatal(err)
		}
		// One dispatcher holds the only slot on a lease that never returns;
		// the other three wait for a slot.
		select {
		case <-w.held:
		case <-time.After(10 * time.Second):
			t.Fatal("worker never received a lease")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := c.Shutdown(ctx); err != context.DeadlineExceeded {
			t.Fatalf("Shutdown = %v, want the drain budget's DeadlineExceeded", err)
		}
		if v, _ = c.Job(v.ID); v.State != server.StateFailed {
			t.Fatalf("job cut off by shutdown finished %s, want failed", v.State)
		}
		if wr, _ := workerByName(c, "w"); wr.Busy != 0 {
			t.Fatalf("busy count after shutdown = %d, want 0", wr.Busy)
		}
		// A dispatcher's deferred wg.Done lets Shutdown return while the
		// goroutine is still unwinding, so give stragglers a moment to
		// exit; one still parked after that is a leak.
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
			stacks := string(buf[:runtime.Stack(buf, true)])
			if !strings.Contains(stacks, "fabric.(*Coordinator)") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("coordinator goroutines outlived Shutdown:\n%s", stacks)
			}
		}
	})
}

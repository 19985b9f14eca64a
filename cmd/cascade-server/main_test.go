package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
)

// TestDaemonEndToEnd boots the daemon on an ephemeral port, drives the
// HTTP API (discovery, submit, await, metrics), then sends the shutdown
// signal and verifies a clean drain.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, io.Discard, serverOptions{
			addr:       "127.0.0.1:0",
			workers:    1,
			queueDepth: 4,
			cacheDir:   t.TempDir(),
			drain:      10 * time.Second,
			onListen:   func(a net.Addr) { addrCh <- a },
		})
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"quickstart"`) {
		t.Errorf("/v1/experiments missing quickstart:\n%s", body)
	}

	// table1 is static — instant even in a unit test.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "table1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/v1/jobs/" + submitted.Job.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Job struct {
			State string `json:"state"`
			Error string `json:"error"`
		} `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Job.State != "done" || len(env.Result) == 0 {
		t.Fatalf("job = %s (error %q), want done with result", env.Job.State, env.Job.Error)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "jobs.completed 1") {
		t.Errorf("/metrics missing jobs.completed 1:\n%s", body)
	}

	cancel() // deliver the "signal"
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exit = %v, want clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// lineLog is a daemon log writer. As the "listening on" line is
// written it reports what atListen answers at that moment, and it
// signals each failed heartbeat line. The daemon writes each line in
// one call.
type lineLog struct {
	atListen func() bool
	listened chan bool     // buffered 1: atListen's answer
	failed   chan struct{} // one per "heartbeat: " line, never blocking
	mu       sync.Mutex
	beats    int // "heartbeat: " lines so far
}

func newLineLog(atListen func() bool) *lineLog {
	return &lineLog{atListen: atListen, listened: make(chan bool, 1), failed: make(chan struct{}, 8)}
}

func (l *lineLog) Write(p []byte) (int, error) {
	line := string(p)
	if strings.Contains(line, "listening on http://") {
		select {
		case l.listened <- l.atListen():
		default:
		}
	}
	if strings.Contains(line, "heartbeat: ") {
		l.mu.Lock()
		l.beats++
		l.mu.Unlock()
		select {
		case l.failed <- struct{}{}:
		default:
		}
	}
	return len(p), nil
}

// failedBeats counts the failed heartbeat lines written so far.
func (l *lineLog) failedBeats() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.beats
}

// startWorker runs the daemon as a fleet worker of coordinator until the
// test ends, and returns its log.
func startWorker(t *testing.T, coordinator string, log *lineLog) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, log, serverOptions{
			addr:        "127.0.0.1:0",
			workers:     1,
			queueDepth:  4,
			drain:       10 * time.Second,
			coordinator: coordinator,
			workerName:  "w1",
		})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker exit = %v, want clean drain", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("worker did not shut down")
		}
	})
}

// TestWorkerEnlistedWhenListening pins fleet readiness in one step: with
// a reachable coordinator, the worker is listed alive by the time its
// "listening on" line is written, so whatever waits for the line never
// polls the fleet.
func TestWorkerEnlistedWhenListening(t *testing.T) {
	c, err := fabric.New(fabric.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	log := newLineLog(func() bool {
		for _, w := range c.Workers() {
			if w.Name == "w1" && w.Alive {
				return true
			}
		}
		return false
	})
	startWorker(t, ts.URL, log)
	select {
	case alive := <-log.listened:
		if !alive {
			t.Fatal("worker not listed alive when its listening line was written")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started listening")
	}
}

// TestWorkerStartsWithoutCoordinator pins that registration before the
// listening line never holds start-up: with nothing at the coordinator
// address, the worker still serves and its heartbeat loop keeps
// retrying (the first retry lands within one default interval).
func TestWorkerStartsWithoutCoordinator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := "http://" + ln.Addr().String()
	ln.Close() // nothing listens there now: connections are refused

	log := newLineLog(func() bool { return true })
	startWorker(t, down, log)
	select {
	case <-log.listened:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started listening with its coordinator down")
	}
	if n := log.failedBeats(); n != 1 {
		t.Fatalf("%d failed registrations logged by the listening line, want the one attempt", n)
	}
	<-log.failed
	select {
	case <-log.failed:
	case <-time.After(2*fabric.DefaultHeartbeatInterval + 5*time.Second):
		t.Fatal("heartbeat loop never retried the registration")
	}
}

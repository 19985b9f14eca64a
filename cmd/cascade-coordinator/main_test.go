package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestParseQuotas(t *testing.T) {
	got, err := parseQuotas("alice=2, bob=8")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"alice": 2, "bob": 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got, err := parseQuotas(""); err != nil || got != nil {
		t.Fatalf("empty spec: %v, %v", got, err)
	}
	for _, bad := range []string{"alice", "=2", "alice=-1", "alice=x"} {
		if _, err := parseQuotas(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestCoordinatorEndToEnd boots the coordinator on an ephemeral port
// with one real worker, drives the fleet API (enlist, membership,
// submit, await, metrics), then sends the shutdown signal and verifies
// a clean drain.
func TestCoordinatorEndToEnd(t *testing.T) {
	// A real in-process worker.
	s, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ws := httptest.NewServer(s.Handler())
	defer ws.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, io.Discard, coordinatorOptions{
			addr:             "127.0.0.1:0",
			drain:            10 * time.Second,
			lease:            time.Minute,
			heartbeatTimeout: time.Minute,
			maxInflight:      4,
			maxAttempts:      8,
			quotasSpec:       "t1=4",
			onListen:         func(a net.Addr) { addrCh <- a },
		})
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("coordinator exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never started listening")
	}

	// No fleet yet: healthy but idle.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "idle" {
		t.Fatalf("healthz before enlist: %d %q", resp.StatusCode, body)
	}

	// Enlist the worker.
	reg, _ := json.Marshal(map[string]string{"name": "w1", "url": ws.URL})
	resp, err = http.Post(base+"/v1/workers", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enlist: %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"w1"`) {
		t.Fatalf("/v1/workers missing w1:\n%s", body)
	}

	// table1 is static — instant even in a unit test: one point per
	// machine, sharded to the worker like any sweep.
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
	var finished struct {
		Job struct {
			State string `json:"state"`
		} `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&finished); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if finished.Job.State != "done" || len(finished.Result) == 0 {
		t.Fatalf("job state %q, result %d bytes", finished.Job.State, len(finished.Result))
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "fabric.jobs.completed 1") ||
		!strings.Contains(string(body), "fabric.points.completed 2") {
		t.Fatalf("metrics missing fleet counters:\n%s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator never drained")
	}
}

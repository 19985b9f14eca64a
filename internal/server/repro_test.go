package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// TestServerReproBundle pins the repro contract end to end on the
// single-node server: a fault-injected job fails, serves a
// self-contained bundle over GET /v1/jobs/{id}/repro whose key is
// reproducible from its replay inputs, and RunRepro on that bundle —
// which re-arms the recorded injector from its spec and seed —
// reproduces the recorded failure exactly. Replay resolves the
// experiment through the global registry, so the job runs a real
// registered experiment; the n=1 panic fires before any simulation.
func TestServerReproBundle(t *testing.T) {
	const spec = "exp.panic:n=1"
	inj, err := faults.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Workers:   1,
		Faults:    inj,
		FaultSpec: spec,
		FaultSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const name = "quickstart"
	v, err := s.Submit(name, JobParams{Scale: 0.02, ChunkKB: 64, N: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Await(v.ID, 10*time.Second, nil)
	if !ok || got.State != StateFailed {
		t.Fatalf("job = %+v, want failed", got)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/repro")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repro status = %d", resp.StatusCode)
	}
	var b ReproBundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.Schema != canon.ReproSchema || b.Experiment != name || b.Job != v.ID {
		t.Errorf("bundle header = %q/%q/%q", b.Schema, b.Experiment, b.Job)
	}
	if b.ErrorCode != CodePanic || !strings.Contains(b.Error, "injected panic") {
		t.Errorf("bundle failure = %q (%s), want the injected panic (%s)", FirstLine(b.Error), b.ErrorCode, CodePanic)
	}
	if b.Faults == nil || b.Faults.Spec != spec || b.Faults.Seed != 1 {
		t.Errorf("bundle faults = %+v, want the armed spec %q", b.Faults, spec)
	}
	if b.Key == "" {
		t.Error("bundle has no repro key")
	}
	recorded := b.Key
	if key, err := b.DeriveKey(); err != nil || key != recorded {
		t.Errorf("DeriveKey = %q, %v; want the served key %q", key, err, recorded)
	}

	replayed := RunRepro(context.Background(), &b)
	if !b.SameFailure(replayed) {
		t.Errorf("replay = %v, want the recorded failure %q (%s)", replayed, FirstLine(b.Error), b.ErrorCode)
	}
}

// TestServerReproRefusals pins the endpoint's error paths: unknown jobs
// 404, non-failed jobs 400, and the legacy wire format is refused (the
// bundle is a bare document, not an envelope, so it has no legacy form).
func TestServerReproRefusals(t *testing.T) {
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit("echo", JobParams{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Await(v.ID, 5*time.Second, nil); !ok || got.State != StateDone {
		t.Fatalf("echo job = %+v, want done", got)
	}

	check := func(path, legacy string, wantStatus int, wantCode string) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if legacy != "" {
			req.Header.Set(VersionHeader, legacy)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus || env.Error == nil || env.Error.Code != wantCode {
			t.Errorf("GET %s: status %d, error %+v; want %d/%s", path, resp.StatusCode, env.Error, wantStatus, wantCode)
		}
	}
	check("/v1/jobs/nope/repro", "", http.StatusNotFound, CodeNotFound)
	check("/v1/jobs/"+v.ID+"/repro", "", http.StatusBadRequest, CodeBadRequest)
	check("/v1/jobs/"+v.ID+"/repro", legacyAPIVersion, http.StatusBadRequest, CodeBadRequest)
}

// TestRunReproTamperedPoint pins the anti-footgun: a bundle whose
// point spec no longer matches its recorded content address (edited by
// hand, or produced by an incompatible build) is refused rather than
// silently replaying the wrong computation.
func TestRunReproTamperedPoint(t *testing.T) {
	b := &ReproBundle{
		Schema:     canon.ReproSchema,
		Experiment: "fig2",
		Point:      &experiments.PointSpec{Experiment: "fig2", Index: 3},
		PointKey:   "not-the-derived-key",
	}
	err := RunRepro(context.Background(), b)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("tampered bundle replay = %v, want a key-mismatch refusal", err)
	}
	if ErrorCodeOf(err) != CodeBadRequest {
		t.Errorf("tampered bundle code = %s, want %s", ErrorCodeOf(err), CodeBadRequest)
	}

	wrong := &ReproBundle{Schema: "cascade-repro/v0"}
	if err := RunRepro(context.Background(), wrong); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("%q", canon.ReproSchema)) {
		t.Errorf("wrong-schema replay = %v, want a schema refusal", err)
	}
}

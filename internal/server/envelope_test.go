package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

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
		req.Header.Set(VersionHeader, version)
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

// legacyAPIVersion is the pre-envelope wire format the server once
// served; it is now an unknown version like any other.
const legacyAPIVersion = "2024-01"

// TestLegacyVersionRejected pins the removal of the 2024-01 wire format:
// every /v1 endpoint answers a request naming it with a 400 bad_request
// envelope error, before doing any work.
func TestLegacyVersionRejected(t *testing.T) {
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("good")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, code := doJSON(t, "POST", ts.URL+"/v1/jobs", "", `{"experiment": "good"}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	id := sub["job"].(map[string]interface{})["id"].(string)

	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v1/experiments", ""},
		{"POST", "/v1/jobs", `{"experiment": "good"}`},
		{"GET", "/v1/jobs", ""},
		{"GET", "/v1/jobs/" + id, ""},
		{"GET", "/v1/jobs/" + id + "?wait=10s", ""},
		{"GET", "/v1/jobs/absent", ""},
		{"GET", "/v1/jobs/" + id + "/repro", ""},
		{"POST", "/v1/points", `{"point": {"experiment": "good"}}`},
		{"POST", "/v1/jobs/" + id + "/checkpoints", `{}`},
		{"GET", "/v1/jobs/" + id + "/checkpoints", ""},
		{"GET", "/v1/jobs/" + id + "/checkpoints/0", ""},
	} {
		m, code := doJSON(t, tc.method, ts.URL+tc.path, legacyAPIVersion, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.method, tc.path, code)
		}
		e, ok := m["error"].(map[string]interface{})
		if !ok || e["code"] != CodeBadRequest || !strings.Contains(e["message"].(string), legacyAPIVersion) {
			t.Errorf("%s %s: error = %v, want code %q naming %s", tc.method, tc.path, m["error"], CodeBadRequest, legacyAPIVersion)
		}
		if m["api_version"] != APIVersion {
			t.Errorf("%s %s: api_version = %v, want %s", tc.method, tc.path, m["api_version"], APIVersion)
		}
	}
	if got := s.Metrics().Get(mJobsSubmitted); got != 1 {
		t.Errorf("jobs.submitted = %d, want 1 (a refused request submitted work)", got)
	}
	if got := s.Metrics().Get(mPointsExecuted); got != 0 {
		t.Errorf("points.executed = %d, want 0 (a refused request executed work)", got)
	}
}

// TestEnvelopeShapes pins the current wire format: every body is an
// envelope stamped api_version, results ride beside jobs, and errors are
// typed {code, message} objects.
func TestEnvelopeShapes(t *testing.T) {
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("good")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, code := doJSON(t, "POST", ts.URL+"/v1/jobs", "", `{"experiment": "good"}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if sub["api_version"] != APIVersion {
		t.Errorf("api_version = %v, want %s", sub["api_version"], APIVersion)
	}
	job, ok := sub["job"].(map[string]interface{})
	if !ok {
		t.Fatalf("submit body lacks a job object: %v", keysOf(sub))
	}
	id := job["id"].(string)

	done, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"?wait=10s", APIVersion, "")
	dj := done["job"].(map[string]interface{})
	if dj["state"] != string(StateDone) {
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
		{"GET", "/v1/jobs/absent", "", http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/jobs", `{"experiment": "nope"}`, http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/jobs", `{"bogus": 1}`, http.StatusBadRequest, CodeBadRequest},
		{"GET", "/v1/jobs/" + id + "?wait=bogus", "", http.StatusBadRequest, CodeBadRequest},
	} {
		m, code := doJSON(t, tc.method, ts.URL+tc.path, "", tc.body)
		if code != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.wantStatus)
		}
		e, ok := m["error"].(map[string]interface{})
		if !ok || e["code"] != tc.wantCode || e["message"] == "" {
			t.Errorf("%s %s: error = %v, want code %q with message", tc.method, tc.path, m["error"], tc.wantCode)
		}
	}

	// Unknown version header: refused, not guessed.
	if _, code := doJSON(t, "GET", ts.URL+"/v1/jobs", "1999-12", ""); code != http.StatusBadRequest {
		t.Errorf("unknown Accept-Version: status %d, want 400", code)
	}
}

// TestWaitCancelledEnvelope is the pinning test for the ?wait fix: a job
// cancelled mid-wait no longer answers as a bare 200 body the client has
// to diagnose — the envelope carries the terminal typed "cancelled" code
// alongside the failed job.
func TestWaitCancelledEnvelope(t *testing.T) {
	gate := make(chan struct{}) // never closed: only cancellation ends the run
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

	v, err := s.Submit("fake", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	// Start the wait, then cancel the job via forced shutdown.
	type waited struct {
		m    map[string]interface{}
		code int
	}
	ch := make(chan waited, 1)
	go func() {
		m, code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"?wait=30s", "", "")
		ch <- waited{m, code}
	}()
	time.Sleep(30 * time.Millisecond) // the waiter is blocked on the job now
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s.Shutdown(ctx)

	got := <-ch
	if got.code != http.StatusOK {
		t.Fatalf("cancelled wait: status %d", got.code)
	}
	e, ok := got.m["error"].(map[string]interface{})
	if !ok {
		t.Fatalf("cancelled wait body lacks an error object: %v", keysOf(got.m))
	}
	if e["code"] != CodeCancelled {
		t.Errorf("error.code = %v, want %q", e["code"], CodeCancelled)
	}
	job := got.m["job"].(map[string]interface{})
	if job["state"] != string(StateFailed) || job["error_code"] != CodeCancelled {
		t.Errorf("job = state %v error_code %v, want failed/cancelled", job["state"], job["error_code"])
	}
}

// TestCheckpointEndpoints drives the checkpoint surface end to end over
// HTTP: capture a stream for a quickstart job, re-capture to hit the
// content-addressed dedup, inspect a checkpoint, resume from it (twice —
// the second resume is a cache hit), and watch every misuse answer with
// a typed error.
func TestCheckpointEndpoints(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A tiny quickstart with small chunks, so the run has several
	// checkpointable chunk boundaries.
	sub, code := doJSON(t, "POST", ts.URL+"/v1/jobs", "",
		`{"experiment": "quickstart", "params": {"scale": 0.001, "chunk_kb": 2}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	id := sub["job"].(map[string]interface{})["id"].(string)
	if _, code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"?wait=30s", "", ""); code != http.StatusOK {
		t.Fatalf("wait: status %d", code)
	}

	// Capture.
	cap1, code := doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/checkpoints", "", `{"every_iters": 0}`)
	if code != http.StatusCreated {
		t.Fatalf("capture: status %d body %v", code, cap1)
	}
	cks := cap1["checkpoints"].(map[string]interface{})
	count := int(cks["count"].(float64))
	if count < 2 {
		t.Fatalf("stream has %d checkpoints, want >= 2 (chunking too coarse?)", count)
	}
	if cks["cached"] == true {
		t.Error("first capture reported cached")
	}

	// Re-capture: content-addressed reuse, no second simulation.
	cap2, code := doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/checkpoints", "", `{"every_iters": 0}`)
	if code != http.StatusOK {
		t.Fatalf("re-capture: status %d", code)
	}
	cks2 := cap2["checkpoints"].(map[string]interface{})
	if cks2["cached"] != true || cks2["key"] != cks["key"] {
		t.Errorf("re-capture = %v, want cached reuse of %v", cks2, cks["key"])
	}
	if got := s.Metrics().Get(mCkptCaptured); got != 1 {
		t.Errorf("checkpoints.captured = %d, want 1", got)
	}
	if got := s.Metrics().Get(mCkptReused); got != 1 {
		t.Errorf("checkpoints.reused = %d, want 1", got)
	}

	// List and inspect.
	list, code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/checkpoints", "", "")
	if code != http.StatusOK || int(list["checkpoints"].(map[string]interface{})["count"].(float64)) != count {
		t.Errorf("list: status %d body %v", code, list)
	}
	insp, code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/checkpoints/1", "", "")
	if code != http.StatusOK {
		t.Fatalf("inspect: status %d", code)
	}
	ck := insp["checkpoint"].(map[string]interface{})
	if int(ck["index"].(float64)) != 1 || ck["iter"].(float64) <= 0 {
		t.Errorf("inspect body = %v, want index 1 with a positive iter", ck)
	}
	state := ck["state"].(map[string]interface{})
	if procs := state["procs"].([]interface{}); len(procs) != 4 {
		t.Errorf("inspected state has %d procs, want 4", len(procs))
	}

	// Resume from checkpoint 1: a completed job with a result.
	res1, code := doJSON(t, "POST", ts.URL+"/v1/jobs", "",
		`{"from_checkpoint": {"job": "`+id+`", "k": 1}}`)
	if code != http.StatusOK {
		t.Fatalf("resume: status %d body %v", code, res1)
	}
	rjob := res1["job"].(map[string]interface{})
	if rjob["state"] != string(StateDone) {
		t.Fatalf("resume job = %v, want done", rjob)
	}
	if res1["result"] == nil {
		t.Fatal("resume job has no result")
	}
	b1, _ := json.Marshal(res1["result"])

	// Second identical resume: served from the content-addressed cache.
	res2, code := doJSON(t, "POST", ts.URL+"/v1/jobs", "",
		`{"from_checkpoint": {"job": "`+id+`", "k": 1}}`)
	if code != http.StatusOK {
		t.Fatalf("second resume: status %d", code)
	}
	rjob2 := res2["job"].(map[string]interface{})
	if rjob2["cached"] != true {
		t.Error("second resume did not hit the cache")
	}
	b2, _ := json.Marshal(res2["result"])
	if !bytes.Equal(b1, b2) {
		t.Error("cached resume result differs from the computed one")
	}

	// Misuse answers with typed errors.
	for _, tc := range []struct {
		method, path, body, version string
		wantStatus                  int
		wantCode                    string
	}{
		{"POST", "/v1/jobs/absent/checkpoints", `{}`, "", http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/jobs/" + id + "/checkpoints", `{"every_iters": -1}`, "", http.StatusBadRequest, CodeBadRequest},
		{"GET", "/v1/jobs/" + id + "/checkpoints/99", "", "", http.StatusNotFound, CodeNotFound},
		{"GET", "/v1/jobs/" + id + "/checkpoints/x", "", "", http.StatusBadRequest, CodeBadRequest},
		{"POST", "/v1/jobs", `{"from_checkpoint": {"job": "absent", "k": 0}}`, "", http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/jobs", `{"experiment": "quickstart", "from_checkpoint": {"job": "` + id + `", "k": 0}}`, "", http.StatusBadRequest, CodeBadRequest},
		{"POST", "/v1/jobs", `{"from_checkpoint": {"job": "` + id + `", "k": 0}}`, legacyAPIVersion, http.StatusBadRequest, CodeBadRequest},
	} {
		m, code := doJSON(t, tc.method, ts.URL+tc.path, tc.version, tc.body)
		if code != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.wantStatus)
		}
		e, ok := m["error"].(map[string]interface{})
		if !ok || e["code"] != tc.wantCode {
			t.Errorf("%s %s: error = %v, want code %q", tc.method, tc.path, m["error"], tc.wantCode)
		}
	}

	// Checkpoints on a non-quickstart experiment are refused.
	tsub, code := doJSON(t, "POST", ts.URL+"/v1/jobs", "", `{"experiment": "table1"}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("table1 submit: status %d", code)
	}
	tid := tsub["job"].(map[string]interface{})["id"].(string)
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+tid+"?wait=10s", "", "")
	m, code := doJSON(t, "POST", ts.URL+"/v1/jobs/"+tid+"/checkpoints", "", `{}`)
	if code != http.StatusBadRequest {
		t.Errorf("non-checkpointable capture: status %d, want 400", code)
	}
	if e, ok := m["error"].(map[string]interface{}); !ok || e["code"] != CodeBadRequest {
		t.Errorf("non-checkpointable capture error = %v", m["error"])
	}
	assertConservation(t, s)
}

// TestResumeMatchesDirectRun pins the resume result's provenance: the
// bytes the server serves for a from_checkpoint job decode to the same
// cascade result as resuming the stream directly through the experiments
// layer.
func TestResumeMatchesDirectRun(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", "",
		`{"experiment": "quickstart", "params": {"scale": 0.001, "chunk_kb": 2}}`)
	id := sub["job"].(map[string]interface{})["id"].(string)
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"?wait=30s", "", "")
	doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/checkpoints", "", `{}`)
	res, code := doJSON(t, "POST", ts.URL+"/v1/jobs", "",
		`{"from_checkpoint": {"job": "`+id+`", "k": 0}}`)
	if code != http.StatusOK {
		t.Fatalf("resume: status %d", code)
	}

	qr, err := experiments.QuickstartCheckpoints(context.Background(),
		experiments.QuickstartScaledN(0.001), 2*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := qr.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(res["result"])
	var a, b interface{}
	json.Unmarshal(want, &a)
	json.Unmarshal(got, &b)
	aa, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(aa, bb) {
		t.Error("served resume result differs from a direct experiments-layer resume")
	}
}

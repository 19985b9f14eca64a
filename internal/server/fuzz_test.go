package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// The request fuzzers drive the real handlers with arbitrary bodies but
// never simulate: point executions panic at once on an armed fault
// (contained as a "panic" outcome), and job starts are a stub. What they
// pin is the decode-and-validate step in front of execution.

// wantPointRun reports whether the worker must execute a requested
// point: the spec is present, its experiment decomposes, it validates,
// and its key derives and matches the claimed one.
func wantPointRun(spec *experiments.PointSpec, claimed string) bool {
	if spec == nil || !experiments.Decomposable(spec.Experiment) || spec.Validate() != nil {
		return false
	}
	key, err := canon.PointKey(*spec)
	return err == nil && (claimed == "" || claimed == key)
}

// refusal reports whether an API error is a client-side refusal.
func refusal(e *APIError) bool {
	return e != nil && (e.Code == CodeBadRequest || e.Code == CodeNotFound)
}

// FuzzPointRequest fuzzes POST /v1/points. The handler must not panic;
// a malformed body or an invalid spec must get a 4xx envelope; exactly
// the valid specs reach execution; and nothing is ever cached. The
// "points" seeds are unknown fields and must get 400 bad_request.
func FuzzPointRequest(f *testing.F) {
	good, bad := invalidPointSpecs(f)
	single := func(ps experiments.PointSpec) []byte {
		b, _ := json.Marshal(map[string]any{"point": ps})
		return b
	}
	f.Add(single(good))
	var items []map[string]any
	for _, ps := range bad {
		f.Add(single(ps))
		items = append(items, map[string]any{"point": ps})
	}
	points, _ := json.Marshal(map[string]any{"points": append(items, map[string]any{"point": good})})
	f.Add(points)
	for _, b := range []string{``, `{`, `null`, `{"point":1}`, `{"points":[{}]}`, `{"point":{"experiment":"fig6"}}`,
		`{"key":"x","point":{"experiment":"fig6","machine":"PentiumPro","procs":4,"strategy":"sequential","scale":0.01}}`,
		`{"point":{"experiment":"fig6"},"points":[{"point":{"experiment":"fig6"}}]}`, `{"bogus":true}`} {
		f.Add([]byte(b))
	}

	inj := faults.New(1)
	inj.Arm(SiteExpPanic, faults.Trigger{Prob: 1})
	s, err := New(Config{Workers: 1, Faults: inj})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		var req pointRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decoded := dec.Decode(&req) == nil

		runs0 := s.Metrics().Get(mJobsPanics)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/points", bytes.NewReader(body)))
		runs := s.Metrics().Get(mJobsPanics) - runs0
		var env Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d: undecodable envelope %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if n := s.cache.Len(); n != 0 {
			t.Fatalf("cache holds %d entries", n)
		}

		var want int64
		switch {
		case !decoded:
			if rec.Code != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest {
				t.Fatalf("malformed request: status %d, envelope %+v; want 400 bad_request", rec.Code, env)
			}
		case wantPointRun(req.Point, req.Key):
			want = 1
			if rec.Code != http.StatusInternalServerError || env.Error == nil || env.Error.Code != CodePanic {
				t.Fatalf("valid point: status %d, envelope %+v; want the injected panic", rec.Code, env)
			}
		default:
			if rec.Code/100 != 4 || !refusal(env.Error) {
				t.Fatalf("invalid point: status %d, envelope %+v; want a 4xx refusal", rec.Code, env)
			}
		}
		if runs != want {
			t.Fatalf("%d points executed, want %d", runs, want)
		}
	})
}

// FuzzJobRequest fuzzes POST /v1/jobs on a job core whose Start only
// records what it was given. The handler must not panic; a malformed
// body, an unknown experiment or out-of-range parameters must get a 4xx
// envelope; every started job's parameters validate; nothing is cached.
func FuzzJobRequest(f *testing.F) {
	for _, b := range []string{
		`{"experiment":"fig6","params":{"scale":0.05}}`,
		`{"experiment":"fig6","params":{"scale":-1}}`,
		`{"experiment":"fig6","params":{"chunk_kb":-4}}`,
		`{"experiment":"fig6","params":{"n":-1}}`,
		`{"experiment":"fig6","params":{"timeout_ms":-1}}`,
		`{"experiment":"nope"}`, `{"experiment":"fig6","params":{"bogus":1}}`, `{`, ``, `null`, `[]`,
	} {
		f.Add([]byte(b))
	}
	known := map[string]bool{}
	for _, e := range experiments.Registry() {
		known[e.Name] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var started []JobParams
		cache, err := NewCache("", nil)
		if err != nil {
			t.Fatal(err)
		}
		core, err := NewJobCore(Daemon{
			IDPrefix: "z", Experiments: experiments.Registry(), Cache: cache, Metrics: metrics.NewSynced(),
			Names: JobMetrics{Submitted: mJobsSubmitted, Completed: mJobsCompleted, Failed: mJobsFailed,
				CacheHits: mJobsCacheHits, Rejected: mJobsRejected},
			Start: func(j *Job) error { started = append(started, j.Params); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		core.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		var env Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d: undecodable envelope %q: %v", rec.Code, rec.Body.Bytes(), err)
		}

		var req submitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		valid := dec.Decode(&req) == nil && known[req.Experiment] &&
			req.Params.WithDefaults().Validate() == nil
		switch {
		case valid && (rec.Code != http.StatusAccepted || len(started) != 1):
			t.Fatalf("valid submission: status %d, %d starts; want 202 and one start", rec.Code, len(started))
		case !valid && (rec.Code/100 != 4 || !refusal(env.Error) || len(started) != 0):
			t.Fatalf("invalid submission: status %d, envelope %+v, %d starts; want a 4xx refusal", rec.Code, env, len(started))
		}
		for _, p := range started {
			if err := p.Validate(); err != nil {
				t.Fatalf("started a job with invalid params %+v: %v", p, err)
			}
		}
		if n := cache.Len(); n != 0 {
			t.Fatalf("cache holds %d entries", n)
		}
	})
}

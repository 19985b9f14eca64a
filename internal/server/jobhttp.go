package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// The job core's HTTP surface, the same on both daemons:
//
//	GET  /v1/experiments        registry metadata (names, descriptions, defaults)
//	POST /v1/jobs               submit {"experiment": "...", "params": {...}}
//	GET  /v1/jobs               list submitted jobs (no result payloads)
//	GET  /v1/jobs/{id}          one job, result included; ?wait=5s blocks
//	GET  /v1/jobs/{id}/repro    a failed job's repro bundle (bare JSON)
//	GET  /metrics               flat "name value" metric exposition
//	GET  /healthz               liveness and readiness, one word
//
// plus the daemon's own /v1 routes (Daemon.Routes). Every /v1 route
// speaks the one envelope format and refuses any other Accept-Version
// before doing work.
//
// Streaming ?wait: a long-poll on GET /v1/jobs/{id} that opts into
// "Accept: application/x-ndjson" gets newline-delimited envelope frames
// instead of one silent blocking response —
//
//	{"api_version":"2025-06","job":{...,"state":"running"},"progress":{"points_done":3,"points_total":42}}
//	...one keep-alive frame per ProgressInterval...
//	{"api_version":"2025-06","job":{...,"state":"done"},"result":{...}}
//
// The final line is always the same envelope the non-streaming path
// would have returned (compacted to one line, as ndjson requires), and
// only the final line may carry a terminal state. Keep-alive frames let
// clients — and the idle-connection timeouts between them and the
// daemon — tell a long sweep from a dead one: each carries the job's
// live point progress (absent until the sweep reports any).

// DefaultProgressInterval is the keep-alive cadence of streaming ?wait
// responses: frequent enough to outrun typical 30–60s proxy idle
// timeouts by a wide margin, rare enough to be free.
const DefaultProgressInterval = time.Second

// NDJSONContentType is the media type that opts a ?wait long-poll into
// streaming keep-alive frames.
const NDJSONContentType = "application/x-ndjson"

// TenantHeader names the request header carrying the tenant identity a
// coordinator's quota admission is keyed by. Absent means the anonymous
// tenant.
const TenantHeader = "X-Tenant"

// retryAfterSeconds is the Retry-After hint on shutdown and quota
// refusals: long enough for a load balancer to route elsewhere or a
// quota slot to open. Queue-full refusals say 1.
const retryAfterSeconds = "5"

// Handler returns the daemon's HTTP API.
func (c *JobCore) Handler() http.Handler {
	mux := http.NewServeMux()
	v1 := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if err := requestVersion(r); err != nil {
				WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
				return
			}
			h(w, r)
		})
	}
	v1("GET /v1/experiments", c.handleExperiments)
	v1("POST /v1/jobs", c.handleSubmit)
	v1("GET /v1/jobs", c.handleJobs)
	v1("GET /v1/jobs/{id}", c.handleJob)
	v1("GET /v1/jobs/{id}/repro", c.handleRepro)
	for pattern, h := range c.d.Routes {
		v1(pattern, h)
	}
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// handleHealthz is the liveness/readiness probe. One word of body:
//
//	ok        200  serving normally
//	idle      200  serving, but the daemon has nothing to run jobs on
//	               (a coordinator with no live worker)
//	degraded  200  serving, but the disk cache is erroring (results are
//	               still computed and served memory-only), or a
//	               conservation identity stopped adding up (see Violated)
//	draining  503  shutdown begun: stop routing new traffic here
func (c *JobCore) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case c.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case !c.d.Cache.Healthy() || c.unconserved.Load():
		status = "degraded"
	case c.d.Idle != nil && c.d.Idle():
		status = "idle"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
}

func (c *JobCore) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeMetrics(w, c.d.Metrics.Snapshot())
}

func (c *JobCore) handleExperiments(w http.ResponseWriter, r *http.Request) {
	WriteEnvelope(w, http.StatusOK, Envelope{Experiments: c.infos})
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Experiment string    `json:"experiment"`
	Params     JobParams `json:"params"`
}

func (c *JobCore) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	v, err := c.Submit(r.Header.Get(TenantHeader), req.Experiment, req.Params)
	if err != nil {
		c.writeRefusal(w, err)
		return
	}
	status := http.StatusAccepted
	if v.State == StateDone {
		status = http.StatusOK // served from cache at submit time
	}
	WriteEnvelope(w, status, jobEnvelope(v))
}

// writeRefusal answers a refused submission. Load shedding is not a
// bare error: Retry-After tells well-behaved clients when to come back,
// and a queue-full refusal carries the queue depth.
func (c *JobCore) writeRefusal(w http.ResponseWriter, err error) {
	env := Envelope{Error: &APIError{Code: CodeBadRequest, Message: err.Error()}}
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		status, env.Error.Code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrQuotaExceeded):
		status, env.Error.Code = http.StatusTooManyRequests, CodeQuotaExceeded
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, ErrShuttingDown):
		status, env.Error.Code = http.StatusServiceUnavailable, CodeShuttingDown
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, ErrQueueFull):
		status, env.Error.Code = http.StatusServiceUnavailable, CodeQueueFull
		w.Header().Set("Retry-After", "1")
		if c.d.QueueDepth != nil {
			depth := c.d.QueueDepth()
			env.QueueDepth = &depth
		}
	}
	WriteEnvelope(w, status, env)
}

func (c *JobCore) handleJobs(w http.ResponseWriter, r *http.Request) {
	WriteEnvelope(w, http.StatusOK, Envelope{Jobs: c.Jobs()})
}

func (c *JobCore) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad wait duration %q", raw))
			return
		}
		wait = d
	}
	j := c.lookup(id)
	if j == nil {
		WriteEnvelopeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	if wantsNDJSON(r) {
		c.streamJob(w, r, j, wait)
		return
	}
	v, _ := c.Await(id, wait, r.Context().Done())
	WriteEnvelope(w, http.StatusOK, finalEnvelope(r, j, v, false))
}

// finalEnvelope is the answer to a ?wait long-poll once the wait ends.
// A request cancelled while waiting gets a terminal typed error, not a
// bare 200 with a partial body the client must diagnose; a streamed
// answer to a wait that merely ran out carries the job's progress.
func finalEnvelope(r *http.Request, j *Job, v JobView, stream bool) Envelope {
	env := jobEnvelope(v)
	if env.Error == nil && v.State != StateDone {
		if r.Context().Err() != nil {
			env.Error = &APIError{Code: CodeCancelled,
				Message: fmt.Sprintf("request cancelled while waiting for job %q", v.ID)}
		} else if stream {
			env.Progress = j.progress()
		}
	}
	return env
}

// streamJob serves one streaming long-poll. wait bounds the total wait
// exactly as the plain path's Await does; 0 degenerates to a single
// final frame.
func (c *JobCore) streamJob(w http.ResponseWriter, r *http.Request, j *Job, wait time.Duration) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	tick := time.NewTicker(c.d.ProgressInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
		case <-deadline.C:
		case <-r.Context().Done():
		case <-tick.C:
			c.mu.Lock()
			frame := Envelope{Job: ptr(j.view(false))}
			c.mu.Unlock()
			if st := frame.Job.State; st != StateDone && st != StateFailed {
				frame.Progress = j.progress()
				if writeFrame(w, flusher, frame) != nil {
					return // client hung up; the job runs on regardless
				}
				continue
			}
			// The job finished as the tick fired: only the final frame
			// may carry a terminal state.
		}
		break
	}
	v, _ := c.Job(j.ID)
	writeFrame(w, flusher, finalEnvelope(r, j, v, true))
}

// handleRepro serves GET /v1/jobs/{id}/repro: the bundle as a bare JSON
// document (not an envelope) so `curl ... > bundle.json` produces
// exactly what `cascade-sim -repro` consumes.
func (c *JobCore) handleRepro(w http.ResponseWriter, r *http.Request) {
	raw, err := c.Repro(r.PathValue("id"))
	if err != nil {
		code, status := errorCode(err), http.StatusBadRequest
		if code == CodeNotFound {
			status = http.StatusNotFound
		}
		WriteEnvelopeError(w, status, code, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// wantsNDJSON reports whether the request opted into streaming frames.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), NDJSONContentType)
}

// writeFrame writes one envelope as a single ndjson line and flushes it
// past any buffering so keep-alives actually reach the client.
func writeFrame(w http.ResponseWriter, flusher http.Flusher, env Envelope) error {
	env.Version = APIVersion
	raw, err := json.Marshal(env)
	if err != nil {
		return err
	}
	// Result payloads are stored indented (RenderJSON) and embedded
	// verbatim by Marshal; compact the whole frame so it stays one line.
	var line bytes.Buffer
	if err := json.Compact(&line, raw); err != nil {
		return err
	}
	line.WriteByte('\n')
	if _, err := w.Write(line.Bytes()); err != nil {
		return err
	}
	if flusher != nil {
		flusher.Flush()
	}
	return nil
}

// WriteJSON writes v as an indented JSON body.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func ptr[T any](v T) *T { return &v }

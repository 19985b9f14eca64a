package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
)

// The coordinator's HTTP API deliberately mirrors the server's job
// surface — same paths, same envelope, same version header — so a
// client (or the cascade CLI) pointed at a coordinator instead of a
// server needs zero changes. On top of it ride the fleet endpoints:
//
//	POST /v1/workers          enlist / heartbeat {"name": "...", "url": "...", "slots": N}
//	GET  /v1/workers          fleet membership, with each worker's slots and busy count
//	GET  /v1/cache/{key}      shared result-index probe (raw bytes or 404)
//
// The coordinator speaks only the current API version: it postdates the
// legacy wire format, so legacy requests are refused rather than
// answered in a shape that never existed here.

// TenantHeader names the request header carrying the tenant identity
// that quota admission is keyed by. Absent means the anonymous tenant.
const TenantHeader = "X-Tenant"

// retryAfterSeconds is the Retry-After hint on every load-shedding
// response (429 quota_exceeded, 503 shutting_down): long enough for a
// quota slot to open or a restart to finish, short enough that a
// well-behaved client keeps up with the fleet.
const retryAfterSeconds = "5"

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", c.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/repro", c.handleRepro)
	mux.HandleFunc("POST /v1/workers", c.handleWorkerRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkerList)
	mux.HandleFunc("GET /v1/cache/{key}", c.handleCacheProbe)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// checkVersion enforces current-version-only requests.
func checkVersion(w http.ResponseWriter, r *http.Request) bool {
	switch v := r.Header.Get(server.VersionHeader); v {
	case "", server.APIVersion:
		return true
	default:
		writeEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Sprintf("coordinator serves only %s %s (got %q)", server.VersionHeader, server.APIVersion, v))
		return false
	}
}

func (c *Coordinator) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if !checkVersion(w, r) {
		return
	}
	writeEnvelope(w, http.StatusOK, server.Envelope{Experiments: c.infos})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !checkVersion(w, r) {
		return
	}
	var req struct {
		Experiment string           `json:"experiment"`
		Params     server.JobParams `json:"params"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	v, err := c.Submit(r.Header.Get(TenantHeader), req.Experiment, req.Params)
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		writeEnvelopeError(w, http.StatusNotFound, server.CodeNotFound, err.Error())
	case errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeEnvelopeError(w, http.StatusTooManyRequests, server.CodeQuotaExceeded, err.Error())
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeEnvelopeError(w, http.StatusServiceUnavailable, server.CodeShuttingDown, err.Error())
	case err != nil:
		writeEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
	case v.State == server.StateDone:
		writeEnvelope(w, http.StatusOK, jobEnvelope(v))
	default:
		writeEnvelope(w, http.StatusAccepted, jobEnvelope(v))
	}
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !checkVersion(w, r) {
		return
	}
	writeEnvelope(w, http.StatusOK, server.Envelope{Jobs: c.Jobs()})
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	if !checkVersion(w, r) {
		return
	}
	id := r.PathValue("id")
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, fmt.Sprintf("bad wait duration %q", raw))
			return
		}
		wait = d
	}
	if wantsNDJSON(r) {
		c.streamJob(w, r, id, wait)
		return
	}
	v, ok := c.Await(id, wait, r.Context().Done())
	if !ok {
		writeEnvelopeError(w, http.StatusNotFound, server.CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	env := jobEnvelope(v)
	if env.Error == nil && v.State != server.StateDone && r.Context().Err() != nil {
		env.Error = &server.APIError{Code: server.CodeCancelled,
			Message: fmt.Sprintf("request cancelled while waiting for job %q", id)}
	}
	writeEnvelope(w, http.StatusOK, env)
}

// streamJob is the coordinator's ndjson long-poll: keep-alive frames
// carrying live points_done/points_total while the fleet chews through
// the sweep, then the final merged envelope — the "partial results
// stream before the sweep completes" half of the fabric contract.
func (c *Coordinator) streamJob(w http.ResponseWriter, r *http.Request, id string, wait time.Duration) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		writeEnvelopeError(w, http.StatusNotFound, server.CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", server.NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	tick := time.NewTicker(c.cfg.ProgressInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
		case <-deadline.C:
		case <-r.Context().Done():
		case <-tick.C:
			c.mu.Lock()
			frame := server.Envelope{}
			view := j.view(false)
			frame.Job = &view
			c.mu.Unlock()
			frame.Progress = j.progress()
			if writeFrame(w, flusher, frame) != nil {
				return
			}
			continue
		}
		break
	}
	v, _ := c.Job(id)
	env := jobEnvelope(v)
	if env.Error == nil && v.State != server.StateDone {
		if r.Context().Err() != nil {
			env.Error = &server.APIError{Code: server.CodeCancelled,
				Message: fmt.Sprintf("request cancelled while waiting for job %q", id)}
		} else {
			env.Progress = j.progress()
		}
	}
	writeFrame(w, flusher, env)
}

// handleRepro serves the repro bundle of a terminal-failed job as a
// bare JSON document (not an envelope): the bundle is a self-contained
// artifact meant to be saved to a file and fed to cascade-sim -repro.
func (c *Coordinator) handleRepro(w http.ResponseWriter, r *http.Request) {
	if !checkVersion(w, r) {
		return
	}
	id := r.PathValue("id")
	raw, err := c.Repro(id)
	if err != nil {
		var fe *fabricError
		status := http.StatusBadRequest
		code := server.CodeBadRequest
		if errors.As(err, &fe) {
			code = fe.code
			if code == server.CodeNotFound {
				status = http.StatusNotFound
			}
		}
		writeEnvelopeError(w, status, code, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// workerRequest is the POST /v1/workers body. Slots is how many points
// the worker runs at once; absent or 0 (an older worker) means 1, and a
// negative count is refused.
type workerRequest struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Slots int    `json:"slots,omitempty"`
}

// workersResponse is the fleet-membership wire shape. Epoch is the
// coordinator incarnation's fencing epoch: it bumps exactly once per
// restart, so an enlisted worker observing a change knows its
// coordinator died and healed, and that any leases it still holds from
// the previous epoch will be fenced, not double-counted.
type workersResponse struct {
	Version string      `json:"api_version"`
	Epoch   uint64      `json:"epoch"`
	Workers []workerRec `json:"workers"`
}

func (c *Coordinator) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if !checkVersion(w, r) {
		return
	}
	var req workerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Slots == 0 {
		req.Slots = 1
	}
	if err := c.RegisterSlots(req.Name, req.URL, req.Slots); err != nil {
		writeEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, workersResponse{Version: server.APIVersion, Epoch: c.epoch, Workers: c.Workers()})
}

func (c *Coordinator) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	if !checkVersion(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, workersResponse{Version: server.APIVersion, Epoch: c.epoch, Workers: c.Workers()})
}

// handleCacheProbe answers the shared result-index protocol: raw cached
// bytes for a content address, or 404. Workers (and sibling fleets) can
// probe before simulating; the response is the exact canonical bytes,
// so a prober can serve them directly.
func (c *Coordinator) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	val, ok := c.cache.Get(key)
	if !ok {
		writeEnvelopeError(w, http.StatusNotFound, server.CodeNotFound, fmt.Sprintf("no cached result for %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(val)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	snap := c.metrics.Snapshot()
	for _, name := range snap.Names() {
		fmt.Fprintf(w, "%s %d\n", name, snap.Get(name))
	}
}

// handleHealthz reports coordinator liveness:
//
//	ok        200  serving, at least one live worker
//	idle      200  serving, but no live workers (jobs will wait)
//	draining  503  shutdown begun
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case c.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case c.metrics.Snapshot().Get(mWorkersAlive) == 0:
		status = "idle"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
}

// wantsNDJSON mirrors the server's streaming opt-in.
func wantsNDJSON(r *http.Request) bool {
	return r.Header.Get("Accept") != "" &&
		bytes.Contains([]byte(r.Header.Get("Accept")), []byte(server.NDJSONContentType))
}

// jobEnvelope mirrors the server's rendering: result hoisted beside the
// job, failures carrying their typed error.
func jobEnvelope(v server.JobView) server.Envelope {
	env := server.Envelope{Result: v.Result}
	v.Result = nil
	env.Job = &v
	if v.State == server.StateFailed {
		code := v.ErrorCode
		if code == "" {
			code = server.CodeExperimentFailed
		}
		env.Error = &server.APIError{Code: code, Message: v.Error}
	}
	return env
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeEnvelope(w http.ResponseWriter, status int, env server.Envelope) {
	env.Version = server.APIVersion
	writeJSON(w, status, env)
}

func writeEnvelopeError(w http.ResponseWriter, status int, code, message string) {
	writeEnvelope(w, status, server.Envelope{Error: &server.APIError{Code: code, Message: message}})
}

// writeFrame writes one envelope as a single compacted ndjson line and
// flushes it.
func writeFrame(w http.ResponseWriter, flusher http.Flusher, env server.Envelope) error {
	env.Version = server.APIVersion
	raw, err := json.Marshal(env)
	if err != nil {
		return err
	}
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

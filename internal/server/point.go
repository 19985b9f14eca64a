package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
)

// POST /v1/points is the fabric's worker surface: a coordinator ships
// one PointSpec here and gets its PointResult back. The endpoint is
// deliberately stateless — no job record, no queue slot, no id to poll —
// because the coordinator owns all sweep bookkeeping (assignment,
// retry, merge); a worker only has to run one point correctly, cache
// it, and shed load honestly.
//
// Three properties the fleet relies on:
//
//   - Key verification: the worker re-derives canon.PointKey from the
//     spec it decoded off the wire and refuses a request whose claimed
//     key disagrees (points.key_mismatch). A mismatch means the two
//     processes no longer share a key derivation — serving it would
//     file the result under a key other nodes will never look up, or
//     worse, hit a stale entry — so the safe answer is a loud 400.
//   - Cache-first: a point already in the local cache (including one
//     another worker wrote through a shared cache directory) is served
//     without simulating (points.cache_hits, "cached": true in the
//     envelope — which is how cross-node hits become observable).
//   - Bounded admission: at most Workers points execute concurrently
//     and at most QueueDepth more may wait; beyond that the worker
//     sheds load with 503 + Retry-After exactly like job submission,
//     and the coordinator backs off or reassigns.

// pointRequest is the POST /v1/points body. The single form carries one
// Point (Key optional: when present it must equal the key the worker
// derives from the spec). The batched form carries Points — one lease
// holding several points — and is mutually exclusive with the single
// form. A batched request that opts into "Accept: application/x-ndjson"
// streams one outcome frame per retired point; otherwise it gets one
// envelope with every outcome.
type pointRequest struct {
	Key    string                 `json:"key,omitempty"`
	Point  *experiments.PointSpec `json:"point,omitempty"`
	Points []pointRequestItem     `json:"points,omitempty"`
}

// pointRequestItem is one point of a batched request.
type pointRequestItem struct {
	Key   string                 `json:"key,omitempty"`
	Point *experiments.PointSpec `json:"point"`
}

// pointRetryAfter is the Retry-After hint on shed points: short,
// because point execution is fast relative to jobs and the coordinator
// re-balances on its own clock anyway.
const pointRetryAfter = "1"

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	var req pointRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Points) > 0 {
		if req.Point != nil {
			WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest,
				"point and points are mutually exclusive")
			return
		}
		s.handlePointBatch(w, r, req.Points)
		return
	}
	key, status, apiErr := s.resolvePoint(req.Point, req.Key)
	if apiErr != nil {
		WriteEnvelope(w, status, Envelope{Error: apiErr})
		return
	}
	spec := *req.Point

	// Cache first: a hit — ours, or a sibling worker's through a shared
	// cache directory — answers without burning an execution slot.
	if val, ok := s.cache.Get(key); ok {
		var res experiments.PointResult
		if err := json.Unmarshal(val, &res); err == nil {
			s.metrics.Inc(mPointsCacheHits)
			WriteEnvelope(w, http.StatusOK, Envelope{Point: &res, Cached: true})
			return
		}
		// An undecodable entry can only mean the PointResult shape moved
		// under a live cache; recompute and overwrite below.
	}

	release, ok := s.admitPoint(w, r)
	if !ok {
		return
	}
	defer release()

	res, err := s.executePoint(spec)
	if err != nil {
		s.metrics.Inc(mPointsFailed)
		code := errorCode(err)
		status := http.StatusInternalServerError
		switch code {
		case CodeTimeout:
			status = http.StatusGatewayTimeout
		case CodeCancelled, CodeShuttingDown:
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", pointRetryAfter)
		case CodeBadRequest, CodeNotFound:
			status = http.StatusBadRequest
		}
		WriteEnvelopeError(w, status, code, err.Error())
		return
	}
	s.metrics.Inc(mPointsExecuted)
	if val, merr := json.Marshal(res); merr == nil {
		// Degrade on write failure exactly as jobs do: the result is in
		// hand, only the shared copy is lost (cache.write_errors).
		_ = s.storeResult(s.runCtx, key, val)
	}
	WriteEnvelope(w, http.StatusOK, Envelope{Point: &res})
}

// handlePointBatch serves the batched form of POST /v1/points: one
// admission slot covers the whole lease (the batch is the unit the
// coordinator dispatched, so it is the unit the worker admits), points
// execute in order, and each point's outcome is independent — a point
// that fails terminally does not poison its batch siblings. With ndjson
// negotiated, outcomes stream one frame per retired point so the
// coordinator closes leases as they finish; a client that hangs up
// mid-stream simply stops receiving outcomes, and the points it never
// saw retire are its to retry (the worker caches their results, so a
// retry is a cache hit, not a re-simulation).
func (s *Server) handlePointBatch(w http.ResponseWriter, r *http.Request, items []pointRequestItem) {
	type resolved struct {
		spec experiments.PointSpec
		key  string
		err  *APIError
	}
	rs := make([]resolved, len(items))
	runnable := false
	for i, it := range items {
		rs[i].key, _, rs[i].err = s.resolvePoint(it.Point, it.Key)
		if rs[i].err == nil {
			rs[i].spec = *it.Point
			runnable = true
		}
	}

	// A batch of refused points runs nothing, so it needs no slot.
	if runnable {
		release, ok := s.admitPoint(w, r)
		if !ok {
			return
		}
		defer release()
	}
	s.metrics.Inc(mPointsBatches)

	stream := wantsNDJSON(r)
	var flusher http.Flusher
	if stream {
		w.Header().Set("Content-Type", NDJSONContentType)
		w.WriteHeader(http.StatusOK)
		flusher, _ = w.(http.Flusher)
	}
	outcomes := make([]PointOutcome, 0, len(items))
	for i, rv := range rs {
		var o PointOutcome
		if rv.err != nil {
			o = PointOutcome{Index: i, Key: rv.key, Error: rv.err}
		} else {
			o = s.runBatchPoint(r.Context(), i, rv.key, rv.spec)
		}
		if stream {
			if writeFrame(w, flusher, Envelope{Outcomes: []PointOutcome{o}}) != nil {
				return // coordinator hung up; its lease timers own the rest
			}
			continue
		}
		outcomes = append(outcomes, o)
	}
	if !stream {
		WriteEnvelope(w, http.StatusOK, Envelope{Outcomes: outcomes})
	}
}

// resolvePoint checks one requested point before it may reach the cache
// or a slot: the spec is present, its experiment has a decomposition,
// its fields are in range (PointSpec.Validate), and the key it derives
// matches the key the request claims. A refusal comes with the status
// the single form answers; the key is set once derived.
func (s *Server) resolvePoint(spec *experiments.PointSpec, claimed string) (string, int, *APIError) {
	switch {
	case spec == nil:
		return "", http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: "missing point spec"}
	case !experiments.Decomposable(spec.Experiment):
		return "", http.StatusNotFound, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("experiment %q has no point decomposition", spec.Experiment)}
	}
	if err := spec.Validate(); err != nil {
		return "", http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: err.Error()}
	}
	key, err := canon.PointKey(*spec)
	if err != nil {
		return "", http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: err.Error()}
	}
	if claimed != "" && claimed != key {
		s.metrics.Inc(mPointsKeyMismatch)
		return key, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: fmt.Sprintf("point key mismatch: request says %s, spec derives %s — coordinator and worker disagree on the key derivation", claimed, key)}
	}
	return key, 0, nil
}

// runBatchPoint resolves one batched point to its outcome: local cache
// first, then execution (warm-prefix path included via executePoint),
// caching the fresh result for the fleet.
func (s *Server) runBatchPoint(ctx context.Context, i int, key string, spec experiments.PointSpec) PointOutcome {
	o := PointOutcome{Index: i, Key: key}
	if val, ok := s.cache.Get(key); ok {
		var res experiments.PointResult
		if err := json.Unmarshal(val, &res); err == nil {
			s.metrics.Inc(mPointsCacheHits)
			o.Point, o.Cached = &res, true
			return o
		}
	}
	if err := ctx.Err(); err != nil {
		o.Error = &APIError{Code: CodeCancelled, Message: err.Error()}
		return o
	}
	res, err := s.executePoint(spec)
	if err != nil {
		s.metrics.Inc(mPointsFailed)
		o.Error = &APIError{Code: errorCode(err), Message: err.Error()}
		return o
	}
	s.metrics.Inc(mPointsExecuted)
	if val, merr := json.Marshal(res); merr == nil {
		_ = s.storeResult(s.runCtx, key, val)
	}
	o.Point = &res
	return o
}

// admitPoint takes an execution slot for a point request, or answers
// the request's refusal itself: 503 shutting_down while the server
// drains, 503 queue_full when admission is saturated.
func (s *Server) admitPoint(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.Draining() {
		s.metrics.Inc(mPointsRejected)
		w.Header().Set("Retry-After", pointRetryAfter)
		WriteEnvelopeError(w, http.StatusServiceUnavailable, CodeShuttingDown, ErrShuttingDown.Error())
		return nil, false
	}
	if release, ok = s.acquirePointSlot(r.Context()); !ok {
		s.metrics.Inc(mPointsRejected)
		w.Header().Set("Retry-After", pointRetryAfter)
		WriteEnvelopeError(w, http.StatusServiceUnavailable, CodeQueueFull,
			"point admission saturated")
	}
	return release, ok
}

// acquirePointSlot admits one point execution: at most Workers run at
// once, at most QueueDepth more wait. Returns false — without blocking
// indefinitely — when the wait line is full, the client gave up, or the
// server's run context died.
func (s *Server) acquirePointSlot(ctx context.Context) (release func(), ok bool) {
	if int(s.pointAdmitted.Add(1)) > s.pointAdmitMax {
		s.pointAdmitted.Add(-1)
		return nil, false
	}
	select {
	case s.pointSem <- struct{}{}:
		return func() {
			<-s.pointSem
			s.pointAdmitted.Add(-1)
		}, true
	case <-ctx.Done():
	case <-s.runCtx.Done():
	}
	s.pointAdmitted.Add(-1)
	return nil, false
}

// executePoint runs one spec under the server's run context and job
// deadline, converting panics (an experiment bug, or the injected
// SiteExpPanic) into typed errors — the same containment execute gives
// a local job, so a poisoned point fails one request, not the worker.
func (s *Server) executePoint(spec experiments.PointSpec) (res experiments.PointResult, err error) {
	ctx := s.runCtx
	if s.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.jobTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc(mJobsPanics)
			err = &codedError{code: CodePanic, err: fmt.Errorf("point panicked: %v\n%s", r, debug.Stack())}
		}
	}()
	if s.faults.Check(SiteExpPanic) {
		panic(fmt.Sprintf("injected panic (site %s)", SiteExpPanic))
	}
	if s.faults.Check(SiteExpStall) {
		<-ctx.Done() // a point that never finishes until cancelled
		return res, ctx.Err()
	}
	if s.warmPrefixes {
		// Warm path: points whose decomposition declares a shared prefix
		// load a cached machine capture instead of rebuilding the sweep
		// prefix. Byte-identical to the cold path by the experiments
		// layer's RunWarm contract; warm=false falls through untouched.
		if wres, warm, werr := s.prefixCache.RunPoint(ctx, spec); warm {
			if werr == nil {
				s.metrics.Inc(mPointsWarm)
			}
			s.publishPrefixStats()
			res, err = wres, werr
		} else {
			res, err = experiments.RunPoint(ctx, spec)
		}
	} else {
		res, err = experiments.RunPoint(ctx, spec)
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) && s.runCtx.Err() == nil {
		s.metrics.Inc(mJobsTimeouts)
		err = fmt.Errorf("point exceeded its %v deadline: %w", s.jobTimeout, err)
	}
	return res, err
}

// PointDeadline returns the execution deadline applied to shipped
// points (0 = none); coordinators size their lease timeouts above it.
func (s *Server) PointDeadline() time.Duration {
	return s.jobTimeout
}

// publishPrefixStats mirrors the prefix cache's counters into the
// metrics registry, so /metrics exposes hit rates, the memoized calls
// and the memory held by parked prefixes. Local jobs publish when they
// finish, shipped points after each warm point.
func (s *Server) publishPrefixStats() {
	st := s.prefixCache.Stats()
	s.metrics.Set(mPrefixHits, st.Hits)
	s.metrics.Set(mPrefixMisses, st.Misses)
	s.metrics.Set(mPrefixCallHits, st.CallHits)
	s.metrics.Set(mPrefixCallMisses, st.CallMisses)
	s.metrics.Set(mPrefixEvictions, st.Evictions)
	s.metrics.Set(mPrefixEntries, int64(st.Entries))
	s.metrics.Set(mPrefixBytes, st.Bytes)
}

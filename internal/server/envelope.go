package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/experiments"
)

// APIVersion is the current wire format: every response is one Envelope,
// and errors are typed objects instead of bare strings.
const APIVersion = "2025-06"

// VersionHeader is the request header that selects the wire format.
const VersionHeader = "Accept-Version"

// Typed error codes carried in Envelope.Error.Code. Terminal codes
// (cancelled, timeout, panic, experiment_failed) describe why a job
// failed; the rest describe why a request was refused.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeQueueFull        = "queue_full"
	CodeShuttingDown     = "shutting_down"
	CodeCancelled        = "cancelled"
	CodeTimeout          = "timeout"
	CodePanic            = "panic"
	CodeExperimentFailed = "experiment_failed"
	// CodeQuotaExceeded rejects a submission whose tenant is over its
	// admission quota (fabric coordinators only; a single server never
	// emits it).
	CodeQuotaExceeded = "quota_exceeded"
)

// APIError is the envelope's typed error object.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Envelope is the one response shape of the current API: every endpoint
// fills the fields it has and omits the rest, so clients decode a single
// type. A job's result rides beside the job, not inside it.
type Envelope struct {
	Version     string                   `json:"api_version"`
	Job         *JobView                 `json:"job,omitempty"`
	Jobs        []JobView                `json:"jobs,omitempty"`
	Experiments []experiments.Info       `json:"experiments,omitempty"`
	Result      json.RawMessage          `json:"result,omitempty"`
	Point       *experiments.PointResult `json:"point,omitempty"`
	Cached      bool                     `json:"cached,omitempty"`
	Progress    *Progress                `json:"progress,omitempty"`
	QueueDepth  *int                     `json:"queue_depth,omitempty"`
	Error       *APIError                `json:"error,omitempty"`
}

// Progress reports how far a running sweep has advanced, in points.
// Keep-alive frames of a streaming ?wait response carry one, as do the
// coordinator's partial-result frames.
type Progress struct {
	PointsDone  int `json:"points_done"`
	PointsTotal int `json:"points_total"`
}

// requestVersion checks a request's wire format. An absent header means
// the current version; any other version is a client error.
func requestVersion(r *http.Request) error {
	if v := r.Header.Get(VersionHeader); v != "" && v != APIVersion {
		return fmt.Errorf("unknown %s %q (known: %s)", VersionHeader, v, APIVersion)
	}
	return nil
}

// WriteEnvelope stamps the version and writes the envelope.
func WriteEnvelope(w http.ResponseWriter, status int, env Envelope) {
	env.Version = APIVersion
	WriteJSON(w, status, env)
}

// WriteEnvelopeError writes a bare typed error in an envelope.
func WriteEnvelopeError(w http.ResponseWriter, status int, code, message string) {
	WriteEnvelope(w, status, Envelope{Error: &APIError{Code: code, Message: message}})
}

// jobEnvelope renders a job in the current format: the result is hoisted
// out of the job, and a failed job carries its typed error.
func jobEnvelope(v JobView) Envelope {
	env := Envelope{Result: v.Result}
	v.Result = nil
	env.Job = &v
	if v.State == StateFailed {
		code := v.ErrorCode
		if code == "" {
			code = CodeExperimentFailed
		}
		env.Error = &APIError{Code: code, Message: v.Error}
	}
	return env
}

// codedError attaches a typed API code to an error. errorCode unwraps it
// with errors.As, so wrapping with %w anywhere above preserves the code.
// detail is the failure in its origin's own words (a worker's message,
// free of the dispatch framing err adds) and point the sweep point that
// failed; repro bundles record both.
type codedError struct {
	code   string
	detail string
	point  *experiments.PointSpec
	err    error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// Coded attaches a typed API code to err, with detail as the failure's
// portable message ("" = err's own).
func Coded(code, detail string, err error) error {
	return &codedError{code: code, detail: detail, err: err}
}

// PointFailure is err marked as the failure of sweep point spec, caused
// by cause: a job failing with it gets a repro bundle that replays the
// point and records cause's code and portable message.
func PointFailure(spec experiments.PointSpec, cause, err error) error {
	ce := &codedError{code: errorCode(cause), detail: cause.Error(), point: &spec, err: err}
	var inner *codedError
	if errors.As(cause, &inner) && inner.detail != "" {
		ce.detail = inner.detail
	}
	return ce
}

// ExplicitCode returns the typed code attached to err by Coded,
// PointFailure or the serving path, or "" when none is — an untyped
// error, such as a transport failure, that errorCode would classify by
// default.
func ExplicitCode(err error) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return ""
}

// errorCode classifies a job or submission error into its typed code.
// Explicit codes win; the context sentinels distinguish a cancelled job
// from one that exceeded its deadline; everything else is the
// experiment's own failure.
func errorCode(err error) string {
	var ce *codedError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &ce):
		return ce.code
	case errors.Is(err, context.Canceled):
		return CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrShuttingDown):
		return CodeShuttingDown
	case errors.Is(err, ErrQuotaExceeded):
		return CodeQuotaExceeded
	case errors.Is(err, ErrUnknownExperiment):
		return CodeNotFound
	default:
		return CodeExperimentFailed
	}
}

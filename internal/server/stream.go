package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Streaming ?wait: a long-poll on GET /v1/jobs/{id} that opts into
// "Accept: application/x-ndjson" gets newline-delimited envelope frames
// instead of one silent blocking response —
//
//	{"api_version":"2025-06","job":{...,"state":"running"},"progress":{"points_done":3,"points_total":42}}
//	...one keep-alive frame per ProgressInterval...
//	{"api_version":"2025-06","job":{...,"state":"done"},"result":{...}}
//
// The final line is always the same envelope the non-streaming path
// would have returned (compacted to one line, as ndjson requires), so a
// streaming client decodes every line into the one Envelope type and
// treats the last as the answer. Intermediate frames exist so clients —
// and the idle-connection timeouts of everything between them and the
// server — can tell a long sweep from a dead one: each carries the
// job's live point progress (absent until the sweep's first point
// completes; an experiment that never parallelizes sends frames with no
// progress field, which still serve as keep-alives).

// DefaultProgressInterval is the keep-alive cadence of streaming ?wait
// responses: frequent enough to outrun typical 30–60s proxy idle
// timeouts by a wide margin, rare enough to be free.
const DefaultProgressInterval = time.Second

// NDJSONContentType is the media type that opts a ?wait long-poll into
// streaming keep-alive frames.
const NDJSONContentType = "application/x-ndjson"

// wantsNDJSON reports whether the request opted into streaming frames.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), NDJSONContentType)
}

// streamJob serves one streaming long-poll. wait bounds the total wait
// exactly as the plain path's Await does; 0 degenerates to a single
// final frame.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, id string, wait time.Duration) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeEnvelopeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}

	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	tick := time.NewTicker(s.progressTick)
	defer tick.Stop()

	for {
		select {
		case <-j.done:
		case <-deadline.C:
		case <-r.Context().Done():
		case <-tick.C:
			s.mu.Lock()
			frame := Envelope{Job: ptr(j.view(false))}
			s.mu.Unlock()
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

	v, _ := s.Job(id)
	env := jobEnvelope(v)
	if env.Error == nil && v.State != StateDone {
		if r.Context().Err() != nil {
			env.Error = &APIError{Code: CodeCancelled,
				Message: fmt.Sprintf("request cancelled while waiting for job %q", id)}
		} else {
			env.Progress = j.progress()
		}
	}
	writeFrame(w, flusher, env)
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

func ptr[T any](v T) *T { return &v }

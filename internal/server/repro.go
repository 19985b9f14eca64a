package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// Repro bundles make failed jobs debuggable offline: every terminal
// failure can be rendered as a self-contained JSON document holding the
// deterministic inputs that produced it — the fully-resolved params,
// the failing point's spec and content address, the armed fault spec
// and seed. The job core builds the bundle when a job fails (BuildRepro,
// the one builder both daemons use); `cascade-sim -repro bundle.json`
// replays it and verifies the failure reproduces identically; GET
// /v1/jobs/{id}/repro serves it.
//
// The bundle's Key hashes only the replay inputs (canon.ReproSchema):
// captured outputs — the error text, the fired-fault counts — are
// evidence, not inputs, and two bundles with the same key must replay
// the same way.

// ReproFaults records the fault-injection configuration that was armed
// when the failure happened. Spec and Seed are replay inputs; Fired is
// evidence (which sites had triggered, cumulatively, at capture time).
type ReproFaults struct {
	Spec  string           `json:"spec"`
	Seed  int64            `json:"seed"`
	Fired map[string]int64 `json:"fired,omitempty"`
}

// ReproBundle is the self-contained replay document attached to a
// terminal-failed job.
type ReproBundle struct {
	Schema     string    `json:"schema"`
	Key        string    `json:"repro_key"`
	Job        string    `json:"job"`
	Experiment string    `json:"experiment"`
	Params     JobParams `json:"params"` // fully resolved, incl. effective timeout_ms
	JobKey     string    `json:"job_key"`

	// What failed: the recorded error and its typed code; for sharded
	// (fabric) jobs, the lowest-index failing point and its address.
	Error     string                 `json:"error"`
	ErrorCode string                 `json:"error_code"`
	Point     *experiments.PointSpec `json:"point,omitempty"`
	PointKey  string                 `json:"point_key,omitempty"`

	Faults *ReproFaults `json:"faults,omitempty"`
}

// reproInputs is the deterministic subset of a bundle that Key hashes.
type reproInputs struct {
	Experiment string                 `json:"experiment"`
	Params     JobParams              `json:"params"`
	Point      *experiments.PointSpec `json:"point,omitempty"`
	FaultSpec  string                 `json:"fault_spec,omitempty"`
	FaultSeed  int64                  `json:"fault_seed,omitempty"`
}

// DeriveKey computes (and stamps) the bundle's content address from its
// replay inputs under canon.ReproSchema.
func (b *ReproBundle) DeriveKey() (string, error) {
	in := reproInputs{Experiment: b.Experiment, Params: b.Params, Point: b.Point}
	if b.Faults != nil {
		in.FaultSpec = b.Faults.Spec
		in.FaultSeed = b.Faults.Seed
	}
	key, err := canon.ReproKey(in)
	if err != nil {
		return "", err
	}
	b.Key = key
	return key, nil
}

// FiredCounts snapshots how often each armed site of inj has triggered,
// for bundle evidence. Nil-safe.
func FiredCounts(inj *faults.Injector, sites []string) map[string]int64 {
	fired := make(map[string]int64)
	for _, site := range sites {
		if n := inj.Fired(site); n > 0 {
			fired[site] = n
		}
	}
	if len(fired) == 0 {
		return nil
	}
	return fired
}

// BuildRepro renders the repro bundle of job j failing with err: its
// resolved params, the error and its typed code — in the failure's own
// words when err carries a portable detail — the failing point's spec
// and content address when err names one (PointFailure), and the
// daemon's fault-injection state. Nothing in it depends on the topology
// the failure happened on. Nil when the key cannot be derived.
func (c *JobCore) BuildRepro(j *Job, err error) []byte {
	b := ReproBundle{
		Schema:     canon.ReproSchema,
		Job:        j.ID,
		Experiment: j.Experiment,
		Params:     j.Params,
		JobKey:     j.Key,
		Error:      err.Error(),
		ErrorCode:  errorCode(err),
	}
	var ce *codedError
	if errors.As(err, &ce) {
		if ce.detail != "" {
			b.Error = ce.detail
		}
		if ce.point != nil {
			sp := *ce.point
			b.Point = &sp
			if key, kerr := canon.PointKey(sp); kerr == nil {
				b.PointKey = key
			}
		}
	}
	if c.d.FaultSpec != "" {
		b.Faults = &ReproFaults{Spec: c.d.FaultSpec, Seed: c.d.FaultSeed,
			Fired: FiredCounts(c.d.Faults, c.d.FaultSites)}
	}
	if _, kerr := b.DeriveKey(); kerr != nil {
		return nil
	}
	raw, _ := json.Marshal(b)
	return raw
}

// Repro returns the repro bundle of a terminal-failed job, as JSON.
func (c *JobCore) Repro(id string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	switch {
	case !ok:
		return nil, &codedError{code: CodeNotFound, err: fmt.Errorf("unknown job %q", id)}
	case j.state != StateFailed:
		return nil, &codedError{code: CodeBadRequest,
			err: fmt.Errorf("job %q is %s; repro bundles exist only for failed jobs", id, j.state)}
	case len(j.repro) == 0:
		return nil, &codedError{code: CodeNotFound,
			err: fmt.Errorf("job %q failed without a repro bundle", id)}
	}
	return j.repro, nil
}

// Repro returns the repro bundle of a terminal-failed job.
func (s *Server) Repro(id string) (*ReproBundle, error) {
	raw, err := s.JobCore.Repro(id)
	if err != nil {
		return nil, err
	}
	var b ReproBundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// RunRepro replays a bundle: re-arm the recorded fault injector from
// its spec and seed, then re-execute the failing unit — the recorded
// point when the bundle names one, the whole experiment through
// RunDecomposed otherwise —
// under the same deadline and panic-containment shape the serving path
// uses. The returned error is the replayed failure (nil means the
// failure did NOT reproduce, which for a correctly-captured bundle is
// itself a finding).
func RunRepro(ctx context.Context, b *ReproBundle) error {
	if b.Schema != canon.ReproSchema {
		return &codedError{code: CodeBadRequest,
			err: fmt.Errorf("bundle schema %q; this build replays %q", b.Schema, canon.ReproSchema)}
	}
	var inj *faults.Injector
	if b.Faults != nil {
		var err error
		if inj, err = faults.Parse(b.Faults.Spec, b.Faults.Seed); err != nil {
			return &codedError{code: CodeBadRequest, err: fmt.Errorf("bundle fault spec: %w", err)}
		}
	}
	if b.Point != nil {
		key, err := canon.PointKey(*b.Point)
		if err != nil {
			return &codedError{code: CodeBadRequest, err: err}
		}
		if b.PointKey != "" && key != b.PointKey {
			return &codedError{code: CodeBadRequest,
				err: fmt.Errorf("bundle point key %s does not match its spec (derived %s) — tampered or stale bundle", b.PointKey, key)}
		}
	}
	if ms := b.Params.TimeoutMS; ms > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	return replayUnit(ctx, b, inj)
}

// replayUnit runs a bundle's point or experiment under the guard that
// executePoint and runJob run it under, so a replayed failure has the
// error shape the serving path recorded.
func replayUnit(ctx context.Context, b *ReproBundle, inj *faults.Injector) error {
	if b.Point != nil {
		return guard(ctx, inj, "point", nil, func() error {
			_, err := experiments.RunPoint(ctx, *b.Point)
			return err
		})
	}
	return guard(ctx, inj, "experiment", nil, func() error {
		_, ok, err := experiments.RunDecomposed(ctx, b.Experiment, b.Params.RunConfig())
		if !ok {
			return &codedError{code: CodeNotFound,
				err: fmt.Errorf("bundle experiment %q not in this build's registry", b.Experiment)}
		}
		return err
	})
}

// SameFailure reports whether a replayed error matches a bundle's
// recorded one: same typed code and same first error line. Panic errors
// carry goroutine stacks whose addresses differ run to run, so the
// comparison deliberately stops at the first newline.
func (b *ReproBundle) SameFailure(replayed error) bool {
	if replayed == nil {
		return false
	}
	code := errorCode(replayed)
	if code != b.ErrorCode {
		return false
	}
	return FirstLine(replayed.Error()) == FirstLine(b.Error)
}

// FirstLine truncates s at its first newline.
func FirstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// ErrorCodeOf classifies err into its typed API code ("" for nil) —
// the exported face of errorCode, for replay tooling that compares a
// live error against a bundle's recorded code.
func ErrorCodeOf(err error) string { return errorCode(err) }

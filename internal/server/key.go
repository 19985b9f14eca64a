package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/canon"
	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// keySchema versions the cache-key derivation. Bump it whenever the
// canonical serializations, the experiment drivers, or the simulation
// semantics change in a way that makes previously-cached results stale:
// every existing key becomes unreachable and the cache refills with
// fresh simulations. The golden-hash tests in key_test.go pin the
// current derivation so an accidental change is caught at test time and
// an intentional one forces this constant (and the goldens) to move
// together.
// v2: prefetch wind-down (see internal/interp) changed compiler-prefetch
// machines' simulated results.
const keySchema = "cascade-cache/v2"

// JobParams are the client-tunable knobs of an experiment job, in the
// units clients supply them (the same units as the cascade-sim flags).
// The zero value of a field means "use the registry default" — see
// WithDefaults.
type JobParams struct {
	// Scale is the PARMVR dataset scale factor (1.0 = paper-scale).
	Scale float64 `json:"scale"`
	// ChunkKB is the cascade chunk budget in KB.
	ChunkKB int `json:"chunk_kb"`
	// N is the synthetic-loop / kernel-gallery array length.
	N int `json:"n"`
	// TimeoutMS is the per-job execution deadline in milliseconds; 0
	// means the server default (Config.JobTimeout). The deadline cannot
	// influence a successful job's result bytes, so it is deliberately
	// excluded from the cache key — jobs differing only in timeout
	// share one entry and coalesce with each other.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// DefaultJobParams returns the registry's shared experiment defaults.
func DefaultJobParams() JobParams {
	rc := experiments.DefaultRunConfig()
	return JobParams{Scale: rc.Scale, ChunkKB: rc.ChunkBytes / 1024, N: rc.N}
}

// WithDefaults fills every zero field from the registry defaults, so a
// submitted {"scale": 0.05} means "0.05 scale, default everything else".
// Keys are always derived from fully-resolved parameters: a request that
// spells out a default and one that omits it hash — and cache — the same.
func (p JobParams) WithDefaults() JobParams {
	d := DefaultJobParams()
	if p.Scale == 0 {
		p.Scale = d.Scale
	}
	if p.ChunkKB == 0 {
		p.ChunkKB = d.ChunkKB
	}
	if p.N == 0 {
		p.N = d.N
	}
	return p
}

// Validate rejects parameters no experiment can run.
func (p JobParams) Validate() error {
	if p.Scale <= 0 {
		return fmt.Errorf("params: scale %g (want > 0)", p.Scale)
	}
	if p.ChunkKB <= 0 {
		return fmt.Errorf("params: chunk_kb %d (want > 0)", p.ChunkKB)
	}
	if p.N <= 0 {
		return fmt.Errorf("params: n %d (want > 0)", p.N)
	}
	if p.TimeoutMS < 0 {
		return fmt.Errorf("params: timeout_ms %d (want >= 0)", p.TimeoutMS)
	}
	return nil
}

// RunConfig converts the parameters to the experiment package's run
// configuration.
func (p JobParams) RunConfig() experiments.RunConfig {
	return experiments.RunConfig{
		Scale:      p.Scale,
		ChunkBytes: p.ChunkKB * 1024,
		N:          p.N,
	}
}

// PointKey is the content address of one simulation point: a canonical
// hash of the fully-resolved machine configuration, cascade options, and
// a workload identifier (e.g. "parmvr@scale=1" or a loop name — whatever
// string the caller uses, it must determine the workload's observable
// memory behaviour). Identical semantic configurations hash equal
// however they were built — field order, default-filled versus explicit,
// fast versus reference engine — and any observable change hashes
// different. See machine.Config.CanonicalBytes and
// cascade.Options.CanonicalBytes for what "observable" means.
func PointKey(cfg machine.Config, opts cascade.Options, workload string) (string, error) {
	cb, err := cfg.CanonicalBytes()
	if err != nil {
		return "", fmt.Errorf("point key: machine config: %w", err)
	}
	ob, err := opts.CanonicalBytes()
	if err != nil {
		return "", fmt.Errorf("point key: options: %w", err)
	}
	h := sha256.New()
	io.WriteString(h, keySchema+"\x00point\x00")
	h.Write(cb)
	h.Write([]byte{0})
	h.Write(ob)
	h.Write([]byte{0})
	io.WriteString(h, workload)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// JobKey is the content address of one experiment job: the experiment
// name, the fully-resolved parameters, and the canonical serialization
// of every machine preset plus the default cascade options the
// experiment drivers resolve against. Folding the presets in means a
// refactor that changes a machine's observable configuration (and hence
// its simulated results) invalidates every cached job automatically
// instead of serving stale numbers.
func JobKey(experiment string, p JobParams) (string, error) {
	p = p.WithDefaults()
	p.TimeoutMS = 0 // execution deadline: not observable in the result bytes
	pb, err := canon.JSON(p)
	if err != nil {
		return "", fmt.Errorf("job key: params: %w", err)
	}
	h := sha256.New()
	io.WriteString(h, keySchema+"\x00job\x00")
	io.WriteString(h, experiment)
	h.Write([]byte{0})
	h.Write(pb)
	for _, cfg := range experiments.Machines() {
		cb, err := cfg.CanonicalBytes()
		if err != nil {
			return "", fmt.Errorf("job key: machine %s: %w", cfg.Name, err)
		}
		h.Write([]byte{0})
		h.Write(cb)
	}
	ob, err := cascade.DefaultOptions(cascade.HelperPrefetch, nil).CanonicalBytes()
	if err != nil {
		return "", fmt.Errorf("job key: default options: %w", err)
	}
	h.Write([]byte{0})
	h.Write(ob)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RenderKey derives the cache key for one rendering of a job's result.
// The server stores JSON renderings ("json"); cascade-sim -cache stores
// whatever mode it was asked for, so a CLI -json sweep and the server
// share entries while table/CSV/chart renderings get their own.
func RenderKey(jobKey, mode string) string {
	return jobKey + "-" + mode
}

package machine

import (
	"encoding/json"

	"repro/internal/canon"
)

// CanonicalBytes returns the configuration's canonical serialization, the
// machine half of a simulation point's content-addressed cache key (see
// internal/server). Two configurations with identical observable
// semantics — however they were constructed — produce identical bytes;
// any change to a field that can alter simulated results produces
// different bytes.
//
// The Engine field is normalized out before encoding: the fast and
// reference engines produce bit-identical simulated results (the
// differential tests in internal/cascade assert this), so a result
// computed on either engine may satisfy a request for the other.
//
// The Parallel knob is elided when off: ParallelOff is the default
// serial behaviour every existing key was computed under, so off
// disappears (a config that does not exercise the knob serializes to
// exactly the bytes it did before the knob existed, which the golden-key
// tests in internal/server pin down) while ParallelOn is kept distinct
// so a diagnostic serial run is never answered from a parallel-computed
// entry, nor vice versa.
func (c Config) CanonicalBytes() ([]byte, error) {
	c.Engine = EngineFast
	m, err := canon.Map(c)
	if err != nil {
		return nil, err
	}
	if c.Parallel == ParallelOff {
		delete(m, "Parallel")
	}
	// CheckpointEvery only adds observation points; the simulated results
	// are identical at any cadence, so it never splits the cache key (and
	// eliding it keeps every pre-knob golden key valid).
	delete(m, "CheckpointEvery")
	return json.Marshal(m)
}

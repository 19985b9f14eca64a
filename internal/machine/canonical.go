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
// The Engine and Parallel fields are dropped before encoding: the fast
// and reference engines, and the host-parallel scheduler on or off, all
// produce bit-identical simulated results (the differential tests in
// internal/cascade assert this), so a result computed under any of them
// may satisfy a request for another. Dropping Parallel whatever its
// value leaves every key computed with the knob off exactly as it was.
func (c Config) CanonicalBytes() ([]byte, error) {
	c.Engine = EngineFast
	m, err := canon.Map(c)
	if err != nil {
		return nil, err
	}
	delete(m, "Parallel")
	return json.Marshal(m)
}

package machine

import "repro/internal/canon"

// CanonicalBytes returns the configuration's canonical serialization, the
// machine half of a simulation point's content-addressed cache key (see
// internal/server). Two configurations with identical observable
// semantics — however they were constructed — produce identical bytes;
// any change to a field that can alter simulated results produces
// different bytes.
//
// The Engine field is normalized before encoding: the fast and
// reference engines produce bit-identical simulated results (the
// differential tests in internal/cascade assert this), so a result
// computed under either may satisfy a request for the other.
func (c Config) CanonicalBytes() ([]byte, error) {
	c.Engine = EngineFast
	return canon.JSON(c)
}

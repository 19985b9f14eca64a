package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
)

// PointSchema versions the fabric's per-point key derivation. Bump it
// whenever the point-spec semantics or the simulation itself changes in
// a way that stales previously-cached point results; the golden-hash
// tests in keys_test.go pin the current derivation so the constant and
// the goldens must move together.
// v2: prefetch wind-down — compiler-prefetch streams stop issuing at the
// end of the data their run-mode call touches, changing R10000 results.
const PointSchema = "cascade-point/v2"

// Key derives a content address: the hex SHA-256 of a schema tag and the
// canonical JSON of v. Because the canonical encoding is independent of
// struct field order and of whether v is a typed struct or its decoded
// generic-map form, two processes that hold semantically identical
// values — a coordinator holding a PointSpec struct and a worker holding
// the same spec freshly decoded from the wire — derive the same key.
// That property is what makes cross-node result caching sound: it is
// pinned by TestPointKeyCoordinatorWorkerIdentity.
func Key(schema string, v interface{}) (string, error) {
	b, err := JSON(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, schema)
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// PointKey derives the content address of one sweep point from its
// fully-resolved spec under PointSchema. The spec must determine the
// point's observable simulation behaviour completely — every knob that
// can change the result must be a field of v.
func PointKey(spec interface{}) (string, error) {
	return Key(PointSchema, spec)
}

// PrefixSchema versions the warm-prefix key derivation: the content
// address of a sweep's shared strategy-independent prefix (machine
// configuration, dataset parameters, warm-up schedule). Workers use it to
// share one prefix, which holds one packed machine capture, across every
// point of a job that declares the same prefix; bump it whenever the
// prefix construction changes meaning. v2: derivation moved to the canonical-JSON Key form
// and grew the distribute flag.
const PrefixSchema = "cascade-prefix/v2"

// PrefixKey derives the content address of a resolved warm-prefix
// descriptor under PrefixSchema. The descriptor must determine the
// post-prefix machine state completely — two equal keys promise
// interchangeable captures.
func PrefixKey(desc interface{}) (string, error) {
	return Key(PrefixSchema, desc)
}

// ReproSchema versions the repro-bundle key derivation. A bundle's key
// hashes only the deterministic replay inputs (experiment, resolved
// params, failing point spec, fault spec and seed) — never the captured
// error text or checkpoint, which are outputs. Two failures with the
// same key must replay identically; keys_test.go pins the derivation.
const ReproSchema = "cascade-repro/v1"

// ReproKey derives the content address of a repro bundle's replay
// inputs under ReproSchema.
func ReproKey(inputs interface{}) (string, error) {
	return Key(ReproSchema, inputs)
}

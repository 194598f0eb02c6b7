// Package digest is the repo's one FNV-1a 64-bit hash. Every durable
// fingerprint — assignments, catalogs, topologies, rotation schedules,
// the optimizer's evaluation-spec key word and its role-keyed search
// streams — folds its fields through a Hash, so the encoding rules
// (little-endian words, length-prefixed strings) live in one place.
//
// Fingerprints appear in -json output and in evaluation-store keys: the
// byte sequence each caller feeds in is part of the on-disk format.
//
// A Hash is a plain value. Keep it in a local variable and call its
// methods directly; binding a method value (h.Byte as a func) makes the
// hash escape to the heap.
package digest

import "math"

// FNV-1a 64-bit parameters.
const (
	offset = 14695981039346656037
	// Prime is the FNV 64-bit prime, exported for callers that mix two
	// finished digests (h*Prime ^ other).
	Prime = 1099511628211
)

// Hash accumulates an FNV-1a 64-bit digest.
type Hash struct{ h uint64 }

// New returns a hash at the FNV-1a offset basis.
func New() Hash { return Hash{h: offset} }

// Byte folds in one byte.
func (d *Hash) Byte(b byte) {
	d.h ^= uint64(b)
	d.h *= Prime
}

// U64 folds in v as eight little-endian bytes.
func (d *Hash) U64(v uint64) {
	for i := 0; i < 8; i++ {
		d.Byte(byte(v >> (8 * i)))
	}
}

// F64 folds in the IEEE-754 bits of v.
func (d *Hash) F64(v float64) { d.U64(math.Float64bits(v)) }

// Str folds in len(s) as a U64, then the bytes of s.
func (d *Hash) Str(s string) {
	d.U64(uint64(len(s)))
	d.Raw(s)
}

// Raw folds in the bytes of s with no length prefix.
func (d *Hash) Raw(s string) {
	for i := 0; i < len(s); i++ {
		d.Byte(s[i])
	}
}

// Sum returns the digest so far.
func (d *Hash) Sum() uint64 { return d.h }

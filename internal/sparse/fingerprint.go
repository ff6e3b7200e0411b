package sparse

import "math"

// Fingerprint returns a 64-bit content hash of the matrix: dimensions,
// sparsity pattern (RowPtr, Col) and values. Two CSR matrices with equal
// fingerprints and equal (Rows, NNZ) are, for caching purposes, the same
// operand: a compiled plan built against one computes bitwise-identical
// results against the other, because the plan reads only the pattern and
// values hashed here.
//
// The hash is word-granular FNV-1a — one multiply per int64/float64 word
// rather than per byte — which keeps a rebind-time fingerprint of a
// multi-million-edge adjacency in the tens of milliseconds. It is a cache
// key, not a cryptographic digest; the plan cache additionally keys on
// Rows, Cols, NNZ and the layer signature, so a collision requires matching all
// of those at once.
//
// The receiver is read-only: Fingerprint does not mutate or memoize on the
// CSR (callers such as the per-layer plan handles memoize per adjacency
// pointer instead).
func (a *CSR) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(a.Rows))
	mix(uint64(a.Cols))
	for _, p := range a.RowPtr {
		mix(uint64(p))
	}
	for _, c := range a.Col {
		mix(uint64(uint32(c)))
	}
	for _, v := range a.Val {
		mix(math.Float64bits(v))
	}
	return h
}

package sparse

import "math"

// Fingerprint returns a 64-bit content hash of the matrix: dimensions,
// sparsity pattern (RowPtr, Col) and values, a pattern's as ones. Two CSR matrices with equal
// fingerprints and equal (Rows, NNZ) are almost surely the same operand.
//
// The hash is word-granular FNV-1a — one multiply per int64/float64 word
// rather than per byte — which keeps a fingerprint of a multi-million-edge
// adjacency in the tens of milliseconds. It is not a cryptographic digest.
// The receiver is read-only: Fingerprint does not mutate or memoize on the
// CSR.
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
	for p := range a.Col {
		mix(math.Float64bits(a.ValueAt(int64(p))))
	}
	return h
}

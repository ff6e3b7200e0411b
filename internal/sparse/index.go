package sparse

import (
	"math"
	"math/bits"
)

// Index is a run of column indices together with an upper bound on the
// largest of them: what the row primitives gather through. The bound is what
// lets a primitive hand a row to the assembly after one multiplication and
// one comparison instead of a scan of the row — the scan happens once, in
// NewIndex, for the whole pattern, and a row is a Slice of the result.
//
// Both fields are unexported, so outside this package there are only two
// ways to an Index: NewIndex, which scans, and the zero value, which is
// empty. No caller can pair indices with a bound that does not cover them.
// What a caller can still do is write to the slice it built the index over;
// it must not (the immutable-pattern convention of CSR, which
// TransposedPattern and Fingerprint rely on as well).
type Index struct {
	cols []int32
	// top is no smaller than any index read as uint32, so that a negative
	// one reads as above MaxInt32.
	top uint32
}

// NewIndex scans cols once and returns it as an Index.
func NewIndex(cols []int32) Index {
	x := Index{cols: cols}
	// Four running maxima so that the scan is not one compare-and-move chain.
	var t0, t1, t2, t3 uint32
	for ; len(cols) >= 4; cols = cols[4:] {
		t0, t1 = max(t0, uint32(cols[0])), max(t1, uint32(cols[1]))
		t2, t3 = max(t2, uint32(cols[2])), max(t3, uint32(cols[3]))
	}
	for _, c := range cols {
		t0 = max(t0, uint32(c))
	}
	x.top = max(t0, t1, t2, t3)
	return x
}

// Len returns the number of indices.
func (x Index) Len() int { return len(x.cols) }

// Cols returns the indices, to read.
func (x Index) Cols() []int32 { return x.cols }

// Slice returns the indices lo ≤ q < hi — a pattern row, given its RowPtr
// pair — under the bound of the whole.
func (x Index) Slice(lo, hi int64) Index { return Index{cols: x.cols[lo:hi], top: x.top} }

// windowsIn reports whether every window m[c*ld+off : c*ld+off+w], c an
// index, lies inside a slice of n elements — the check the Go loops make
// edge by edge when they slice a row, made from the bound so that the
// assembly never forms an address outside m. It can fail for a row whose own
// indices would pass (the bound is the whole pattern's); the row then runs in
// the Go loops, to the same bits.
func (x Index) windowsIn(n, ld, off, w int) bool {
	room := n - off - w
	if ld < 0 || off < 0 || room < 0 {
		return false
	}
	hi, last := bits.Mul64(uint64(x.top), uint64(ld))
	return x.top <= math.MaxInt32 && hi == 0 && last <= uint64(room)
}

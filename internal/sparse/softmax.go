package sparse

import (
	"math"

	"agnn/internal/obs"
	"agnn/internal/par"
)

// RowSoftmaxInto implements the graph softmax of Section 4.2,
//
//	sm(X) = exp(X) ⊘ rs_n(exp(X)),
//
// over each vertex neighborhood (each row of the sparse score matrix s),
// into a pre-allocated value buffer of s's pattern. As in the paper's
// implementation, the n×n replication matrix rs_n is never created; each row
// is normalized by its own exp-sum, with the row maximum subtracted first
// (the factor exp(−max) cancels).
func RowSoftmaxInto(vals []float64, s *CSR) {
	defer obs.Start("row_softmax").End()
	if len(vals) != s.NNZ() {
		panic("sparse: RowSoftmaxInto value length mismatch")
	}
	par.RangeWeighted(s.Rows, func(i int) int64 { return int64(s.RowNNZ(i)) }, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b, e := s.RowPtr[i], s.RowPtr[i+1]
			if b == e {
				continue
			}
			m := math.Inf(-1)
			for p := b; p < e; p++ {
				if v := s.ValueAt(p); v > m {
					m = v
				}
			}
			sum := 0.0
			for p := b; p < e; p++ {
				v := math.Exp(s.ValueAt(p) - m)
				vals[p] = v
				sum += v
			}
			inv := 1 / sum
			for p := b; p < e; p++ {
				vals[p] *= inv
			}
		}
	})
}

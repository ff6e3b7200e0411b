package sparse

import (
	"fmt"

	"agnn/internal/par"
	"agnn/internal/semiring"
)

// SpMMSemiring computes the generalized sparse-dense product of Section 4.3
// over an arbitrary semiring: Y[i,c] = ⊕_{j ∈ row i} (edge(S_ij) ⊗ X[j,c]).
//
// x is a row-major Rows(S.Cols)×xCols matrix of semiring elements; edge maps
// each stored adjacency value into the semiring domain (e.g. identity for
// the real semiring, 0-on-edge for tropical semirings, or LiftEdge for the
// averaging semiring). Structural zeros contribute the Plus-identity, i.e.
// they are skipped — exactly the effect of setting off-diagonal zeros to
// the semiring's el₁ (∞ for min, −∞ for max) as the paper prescribes.
func SpMMSemiring[T any](s *CSR, x []T, xCols int, sr semiring.Semiring[T], edge func(v float64) T) []T {
	if len(x) != s.Cols*xCols {
		panic(fmt.Sprintf("sparse: SpMMSemiring X length %d != %d×%d", len(x), s.Cols, xCols))
	}
	out := make([]T, s.Rows*xCols)
	par.RangeWeighted(s.Rows, func(i int) int64 { return int64(s.RowNNZ(i)) }, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out[i*xCols : (i+1)*xCols]
			for c := range orow {
				orow[c] = sr.Zero
			}
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				ev := edge(s.Val[p])
				xrow := x[int(s.Col[p])*xCols : (int(s.Col[p])+1)*xCols]
				for c, xv := range xrow {
					orow[c] = sr.Plus(orow[c], sr.Times(ev, xv))
				}
			}
		}
	})
	return out
}

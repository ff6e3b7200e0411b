package sparse

import (
	"math"

	"agnn/internal/obs"
	"agnn/internal/par"
)

// RowSoftmax implements the graph softmax of Section 4.2:
//
//	sm(X) = exp(X) ⊘ rs_n(exp(X))
//
// applied over each vertex neighborhood (each row of the sparse score
// matrix). As in the paper's implementation, the n×n replication matrix
// rs_n is never created; each row is normalized by its own exp-sum. For
// numerical robustness the row maximum is subtracted before
// exponentiation, which is algebraically identical to the paper's
// formulation (the factor exp(-max) cancels).
func RowSoftmax(s *CSR) *CSR {
	vals := make([]float64, s.NNZ())
	RowSoftmaxInto(vals, s)
	return s.WithValues(vals)
}

// RowSoftmaxInto computes the row softmax of s's values into a
// pre-allocated value buffer (same pattern as s).
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
				if s.Val[p] > m {
					m = s.Val[p]
				}
			}
			sum := 0.0
			for p := b; p < e; p++ {
				v := math.Exp(s.Val[p] - m)
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

// RowSoftmaxBackwardInto computes the vector-Jacobian product of
// RowSoftmax into a pre-allocated value buffer (same pattern as p): given
// P = RowSoftmax(S) and the upstream gradient Ḡ (same pattern), it writes
// S̄ with
//
//	S̄_ij = P_ij · (Ḡ_ij − ρ_i),   ρ_i = Σ_j Ḡ_ij · P_ij
//
// which is the per-neighborhood softmax Jacobian restricted to the sparsity
// pattern. This is the Γ sub-expression shared by the AGNN and GAT backward
// passes.
func RowSoftmaxBackwardInto(vals []float64, p, g *CSR) {
	if !p.SamePattern(g) {
		panic("sparse: RowSoftmaxBackwardInto pattern mismatch")
	}
	defer obs.Start("row_softmax_bwd").End()
	if len(vals) != p.NNZ() {
		panic("sparse: RowSoftmaxBackwardInto value length mismatch")
	}
	par.RangeWeighted(p.Rows, func(i int) int64 { return int64(p.RowNNZ(i)) }, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b, e := p.RowPtr[i], p.RowPtr[i+1]
			rho := 0.0
			for q := b; q < e; q++ {
				rho += g.Val[q] * p.Val[q]
			}
			for q := b; q < e; q++ {
				vals[q] = p.Val[q] * (g.Val[q] - rho)
			}
		}
	})
}

// RowSoftmaxUnstable is the literal transcription of the paper's global
// softmax formulation — exp, row-sum via multiplication with 1, Hadamard
// division — without the max-subtraction stabilization. It exists to test
// that the stabilized kernel is algebraically identical, and as the
// unfused ablation target.
func RowSoftmaxUnstable(s *CSR) *CSR {
	e := s.Exp()
	sums := e.RowSums() // exp(X)·1
	inv := make([]float64, len(sums))
	for i, v := range sums {
		if v != 0 {
			inv[i] = 1 / v
		}
	}
	return e.ScaleRows(inv) // ⊘ rep(sum): division by the virtual rs_n matrix
}

// Package kernels is the hand-written scalar fused attention sweep of
// Section 6.2 (Figure 5): the score evaluators of GAT and AGNN and the fused
// softmax-apply kernel that iterates over the non-zeros of the pattern and
// evaluates the virtual n×n score matrix on the fly. The program runs the
// compiled plans of internal/fuse; only the benchmark (bench/surface.go)
// times this sweep, one level below the plan ops, until its probes time the
// sparse row primitives instead.
package kernels

import (
	"math"

	"agnn/internal/obs"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// ScoreFunc evaluates one entry (i, j) of a virtual dense score matrix.
// Implementations close over the small dense factors (u, v, H, norms …)
// that represent the virtual matrix implicitly.
type ScoreFunc func(i, j int32) float64

// GATEdgeScore returns the virtual-matrix evaluator for GAT's attention
// logits: C_ij = LeakyReLU(u_i + v_j) where u = H'·a₁ and v = H'·a₂ are the
// per-vertex halves of the split dot product aᵀ[Wh_i ‖ Wh_j] (Figure 2).
// The full C = σ(u·1ᵀ + 1·vᵀ) is never instantiated.
func GATEdgeScore(u, v []float64, negSlope float64) ScoreFunc {
	return func(i, j int32) float64 {
		s := u[i] + v[j]
		if s < 0 {
			s *= negSlope
		}
		return s
	}
}

// AGNNEdgeScore returns the evaluator for AGNN's scaled cosine similarity:
// C_ij = β · (h_i·h_j)/(‖h_i‖‖h_j‖), the virtual (H·Hᵀ) ⊘ n·nᵀ scaled by β.
// Zero-norm rows contribute score 0.
func AGNNEdgeScore(h *tensor.Dense, norms []float64, beta float64) ScoreFunc {
	k := h.Cols
	return func(i, j int32) float64 {
		ni, nj := norms[i], norms[j]
		if ni == 0 || nj == 0 {
			return 0
		}
		hi := h.Data[int(i)*k : int(i)*k+k]
		hj := h.Data[int(j)*k : int(j)*k+k]
		acc := 0.0
		for t, v := range hi {
			acc += v * hj[t]
		}
		return beta * acc / (ni * nj)
	}
}

// FusedSoftmaxApply computes Z = sm(A ⊙ scores)·X without materializing the
// attention matrix Ψ at all — the inference-only fast path matching the
// paper's --inference mode, which skips storing intermediates needed for
// backpropagation. Per-worker scratch holds one row of scores at a time.
func FusedSoftmaxApply(pat *sparse.CSR, f ScoreFunc, x *tensor.Dense) *tensor.Dense {
	if pat.Cols != x.Rows {
		panic("kernels: FusedSoftmaxApply shape mismatch")
	}
	defer obs.Start("fused_softmax_apply").End()
	k := x.Cols
	out := tensor.NewDense(pat.Rows, k)
	maxRow := pat.MaxRowNNZ()
	scratch := make([][]float64, par.Workers())
	par.RangeWeighted(pat.Rows, func(i int) int64 { return int64(pat.RowNNZ(i)) }, func(worker, lo, hi int) {
		buf := scratch[worker]
		if buf == nil {
			buf = make([]float64, maxRow)
			scratch[worker] = buf
		}
		for i := lo; i < hi; i++ {
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			if b == e {
				continue
			}
			m := math.Inf(-1)
			for p := b; p < e; p++ {
				v := f(int32(i), pat.Col[p])
				buf[p-b] = v
				if v > m {
					m = v
				}
			}
			sum := 0.0
			for p := b; p < e; p++ {
				v := math.Exp(buf[p-b] - m)
				buf[p-b] = v
				sum += v
			}
			inv := 1 / sum
			orow := out.Data[i*k : (i+1)*k]
			for p := b; p < e; p++ {
				w := buf[p-b] * inv
				xrow := x.Data[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
				for t, xv := range xrow {
					orow[t] += w * xv
				}
			}
		}
	})
	return out
}

package sparse

import (
	"fmt"

	"agnn/internal/obs"
	"agnn/internal/par"
	"agnn/internal/tensor"
)

// MulDenseInto computes the SpMM kernel out = S·X (sparse × tall-dense) into
// pre-allocated out. Rows are distributed over workers with nnz-balanced
// chunks, mirroring the paper's grid-stride CUDA kernels. The feature
// dimension is tiled to the cache budget (tensor.TileCols): each pass over
// a worker's row range touches only an n×w column stripe of X, so the
// randomly indexed X rows stay L2-resident even when k·8 bytes per row
// would not. Tiling splits output columns only — every output element
// accumulates its nnz contributions in the original order, so the tiled
// kernel is bitwise-identical to the single-pass loop (which it degenerates
// to when the stripe fits).
func (s *CSR) MulDenseInto(out, x *tensor.Dense) {
	if s.Cols != x.Rows || out.Rows != s.Rows || out.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: SpMM shape mismatch out %d×%d = %d×%d · %d×%d",
			out.Rows, out.Cols, s.Rows, s.Cols, x.Rows, x.Cols))
	}
	defer obs.Start("spmm").End()
	k := x.Cols
	tc := tensor.TileCols(x.Rows, k, 8)
	idx, vals := s.Index(), RowValues(s, s.Val)
	par.RangeWeighted(s.Rows, func(i int) int64 { return int64(s.RowNNZ(i)) }, func(_, lo, hi int) {
		clear(out.Data[lo*k : hi*k])
		for c0 := 0; c0 < k; c0 += tc {
			c1 := min(c0+tc, k)
			for i := lo; i < hi; i++ {
				b, e := s.RowPtr[i], s.RowPtr[i+1]
				GatherAxpy(out.Data[i*k+c0:i*k+c1], vals(b, e), idx.Slice(b, e), x.Data, k, c0)
			}
		}
	})
}

// SDDMM computes the sampled dense-dense matrix product: a matrix with the
// pattern of pat whose value at (i, j) is X[i,:]·Y[j,:] (i.e. pat ⊙ X·Yᵀ,
// with the n×n dense product never materialized — it is the virtual matrix
// of Table 1). For VA this yields Ψ = A ⊙ H·Hᵀ directly.
func SDDMM(pat *CSR, x, y *tensor.Dense) *CSR {
	if x.Rows != pat.Rows || y.Rows != pat.Cols || x.Cols != y.Cols {
		panic(fmt.Sprintf("sparse: SDDMM shape mismatch pat %d×%d, X %d×%d, Y %d×%d",
			pat.Rows, pat.Cols, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	defer obs.Start("sddmm").End()
	k := x.Cols
	vals := make([]float64, pat.NNZ())
	idx := pat.Index()
	par.RangeWeighted(pat.Rows, func(i int) int64 { return int64(pat.RowNNZ(i)) }, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			GatherDots(vals[b:e], x.Data[i*k:(i+1)*k], idx.Slice(b, e), y.Data, k, 0)
		}
	})
	return pat.WithValues(vals)
}

package graph

import (
	"math"
	"slices"

	"agnn/internal/sparse"
)

// AddSelfLoops returns Â = A + I: the N̂(v) = N(v) ∪ {v} neighborhood used
// by GAT and GCN, with unit values (an entry whose sum with I is 0 keeps its
// place with value 0). Entries already on the diagonal are preserved — one
// entry per position. It is one pass over A's rows: each row is copied with
// its diagonal entry merged in at its column's place, as A.Add(I) would,
// and every value written as the unit the sum maps to. Â is a pattern unless
// a sum is 0 — always for a pattern, whose sums with I are all 1 or 2.
func AddSelfLoops(a *sparse.CSR) *sparse.CSR {
	if a.Rows != a.Cols {
		panic("graph: AddSelfLoops needs a square matrix")
	}
	unit := func(v float64) float64 {
		if v != 0 {
			return 1
		}
		return 0
	}
	out := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		// The diagonal merges with the first entry at or right of it.
		n := a.RowPtr[i+1] - a.RowPtr[i] + 1
		row := a.Col[a.RowPtr[i]:a.RowPtr[i+1]]
		if q := slices.IndexFunc(row, func(j int32) bool { return j >= int32(i) }); q >= 0 && row[q] == int32(i) {
			n--
		}
		out.RowPtr[i+1] = out.RowPtr[i] + n
	}
	out.Col = make([]int32, out.RowPtr[a.Rows])
	out.Val = sparse.ValuesLike(a.Val, int(out.RowPtr[a.Rows]))
	out.RangeRows(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			q, diag, pending := out.RowPtr[i], int32(i), true
			put := func(j int32, v float64) {
				out.Col[q] = j
				if out.Val != nil {
					out.Val[q] = unit(v)
				}
				q++
			}
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j, v := a.Col[p], a.ValueAt(p)
				switch {
				case pending && j == diag:
					v, pending = v+1, false
				case pending && j > diag:
					put(diag, 1)
					pending = false
				}
				put(j, v)
			}
			if pending {
				put(diag, 1)
			}
		}
	})
	return sparse.PatternIfUnit(out)
}

// Symmetrize returns the pattern of A + Aᵀ with unit values: a pattern
// unless a sum is 0.
func Symmetrize(a *sparse.CSR) *sparse.CSR {
	return sparse.PatternIfUnit(a.AddTranspose().Apply(func(v float64) float64 {
		if v != 0 {
			return 1
		}
		return 0
	}))
}

// RemoveSelfLoops drops diagonal entries.
func RemoveSelfLoops(a *sparse.CSR) *sparse.CSR {
	coo := sparse.NewCOO(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.Col[p]) != i {
				coo.AppendFrom(int32(i), a.Col[p], a.Val, p)
			}
		}
	}
	return sparse.FromCOO(coo)
}

// NormalizeGCN returns D̂^{-1/2}·Â·D̂^{-1/2} with Â = A + I — the symmetric
// normalization of the GCN model (1/sqrt(d_v·d_u) edge coefficients of the
// paper's C-GNN local formulation). The result is the "normalized adjacency
// matrix" the paper folds into the symbol A.
func NormalizeGCN(a *sparse.CSR) *sparse.CSR {
	ah := AddSelfLoops(a)
	deg := ah.RowSums()
	inv := make([]float64, len(deg))
	for i, d := range deg {
		if d > 0 {
			inv[i] = 1 / math.Sqrt(d)
		}
	}
	return ah.ScaleRowsCols(inv, inv)
}

// NormalizeRW returns D^{-1}·A — the random-walk (mean) normalization.
func NormalizeRW(a *sparse.CSR) *sparse.CSR {
	deg := a.RowSums()
	inv := make([]float64, len(deg))
	for i, d := range deg {
		if d > 0 {
			inv[i] = 1 / d
		}
	}
	return a.ScaleRows(inv)
}

// Degrees returns the out-degree (row nnz) of every vertex.
func Degrees(a *sparse.CSR) []int {
	out := make([]int, a.Rows)
	for i := range out {
		out[i] = a.RowNNZ(i)
	}
	return out
}

// Stats summarizes the structural properties the paper's experiments are
// parameterized by.
type Stats struct {
	N, M      int     // vertices, directed non-zeros
	MaxDeg    int     // d in the communication bounds
	AvgDeg    float64 // m/n
	Density   float64 // ρ = m/n²
	Isolated  int     // vertices with no neighbors
	Symmetric bool    // pattern symmetry
}

// Summarize computes Stats for an adjacency matrix.
func Summarize(a *sparse.CSR) Stats {
	st := Stats{N: a.Rows, M: a.NNZ()}
	for i := 0; i < a.Rows; i++ {
		d := a.RowNNZ(i)
		if d > st.MaxDeg {
			st.MaxDeg = d
		}
		if d == 0 {
			st.Isolated++
		}
	}
	if st.N > 0 {
		st.AvgDeg = float64(st.M) / float64(st.N)
		st.Density = float64(st.M) / (float64(st.N) * float64(st.N))
	}
	st.Symmetric = a.IsSymmetricPattern()
	return st
}

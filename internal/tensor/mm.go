package tensor

import (
	"fmt"

	"agnn/internal/par"
)

// MM returns the dense product A·B (the MM kernel of Table 2). The loop
// order (i, t, j) with the inner loop over B's rows keeps all accesses
// sequential; rows of A are distributed over workers.
func MM(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MM inner dimension mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	MMInto(out, a, b)
	return out
}

// MMInto computes out = A·B into pre-allocated out. B's columns are tiled
// to the cache budget (TileCols): each worker sweeps its row range once per
// k×w block of B, so the block stays L2-resident across rows instead of B
// being streamed in full for every row. Tiling splits output columns only —
// each out[i,j] accumulates over t in the same order as the untiled loop,
// so the result is bitwise-identical.
func MMInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MMInto shape mismatch out %d×%d = %d×%d · %d×%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	tile := TileCols(k, m, 8)
	par.Range(n, func(_, lo, hi int) {
		for j0 := 0; j0 < m; j0 += tile {
			j1 := min(j0+tile, m)
			for i := lo; i < hi; i++ {
				arow := a.Data[i*k : (i+1)*k]
				orow := out.Data[i*m+j0 : i*m+j1]
				clear(orow)
				for t := 0; t < k; t++ {
					av := arow[t]
					if av == 0 {
						continue
					}
					brow := b.Data[t*m+j0 : t*m+j1]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	})
}

// MMT returns A·Bᵀ without materializing the transpose. This is the X× =
// X·Xᵀ pattern of Table 2 when a == b.
func MMT(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MMT inner dimension mismatch %d×%d · (%d×%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	out := NewDense(n, m)
	par.Range(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*m : (i+1)*m]
			for j := 0; j < m; j++ {
				brow := b.Data[j*k : (j+1)*k]
				s := 0.0
				for t, av := range arow {
					s += av * brow[t]
				}
				orow[j] = s
			}
		}
	})
	return out
}

// TMM returns Aᵀ·B without materializing the transpose. This is the
// projection-gradient pattern Hᵀ·G used throughout the backward passes.
// Workers accumulate into private k×m buffers that are then summed, so the
// result is deterministic for a fixed worker count.
func TMM(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMM inner dimension mismatch (%d×%d)ᵀ · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	w := par.Workers()
	partials := make([]*Dense, w)
	par.Range(n, func(worker, lo, hi int) {
		acc := partials[worker]
		if acc == nil {
			acc = NewDense(k, m)
			partials[worker] = acc
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			brow := b.Data[i*m : (i+1)*m]
			for t, av := range arow {
				if av == 0 {
					continue
				}
				crow := acc.Data[t*m : (t+1)*m]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
	out := NewDense(k, m)
	for _, p := range partials {
		if p != nil {
			out.AddInPlace(p)
		}
	}
	return out
}

// TMMScratch holds the per-worker partial accumulators TMMAccumulate needs
// to parallelize over rows without races. The buffers are kept zeroed
// between calls, so a scratch that has warmed up to the current worker
// count makes TMMAccumulate allocation-free — the property the compiled
// plans rely on.
type TMMScratch struct {
	partials []*Dense
}

// ensure grows the scratch to the current worker count and the requested
// shape.
func (s *TMMScratch) ensure(k, m int) []*Dense {
	need := par.Workers()
	if len(s.partials) < need {
		grown := make([]*Dense, need)
		copy(grown, s.partials)
		s.partials = grown
	}
	for i, p := range s.partials {
		if p != nil && (p.Rows != k || p.Cols != m) {
			s.partials[i] = nil
		}
	}
	return s.partials
}

// TMMAccumulate computes out += Aᵀ·B without materializing the transpose,
// accumulating per-worker partials from scratch (allocated lazily on first
// use and when the worker count grows). Pass nil scratch for one-shot use.
func TMMAccumulate(out, a, b *Dense, scratch *TMMScratch) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMMAccumulate shape mismatch out %d×%d += (%d×%d)ᵀ · %d×%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if scratch == nil {
		scratch = &TMMScratch{}
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	partials := scratch.ensure(k, m)
	par.Range(n, func(worker, lo, hi int) {
		acc := partials[worker]
		if acc == nil {
			acc = NewDense(k, m)
			partials[worker] = acc
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			brow := b.Data[i*m : (i+1)*m]
			for t, av := range arow {
				if av == 0 {
					continue
				}
				crow := acc.Data[t*m : (t+1)*m]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
	// Fold the partials in and re-zero them, restoring the invariant that
	// scratch buffers are zero between calls.
	for _, p := range partials {
		if p != nil {
			out.AddInPlace(p)
			p.Zero()
		}
	}
}

// MatVec returns A·x for a column vector x (len(x) == A.Cols).
func MatVec(a *Dense, x []float64) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %d×%d · %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	par.Range(a.Rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Data[i*a.Cols : (i+1)*a.Cols]
			s := 0.0
			for t, v := range row {
				s += v * x[t]
			}
			out[i] = s
		}
	})
	return out
}

// VecMat returns xᵀ·A for a vector x (len(x) == A.Rows), i.e. the column
// combination Σ_i x_i · A[i,:].
func VecMat(x []float64, a *Dense) []float64 {
	if len(x) != a.Rows {
		panic(fmt.Sprintf("tensor: VecMat dimension mismatch %d · %d×%d", len(x), a.Rows, a.Cols))
	}
	out := make([]float64, a.Cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			out[j] += xv * v
		}
	}
	return out
}

// AddOuterInPlace accumulates alpha·x·yᵀ into m.
func AddOuterInPlace(m *Dense, alpha float64, x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuterInPlace shape mismatch %d×%d += %d·%d", m.Rows, m.Cols, len(x), len(y)))
	}
	par.Range(len(x), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			s := alpha * x[i]
			if s == 0 {
				continue
			}
			for j, yv := range y {
				row[j] += s * yv
			}
		}
	})
}

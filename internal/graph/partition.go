package graph

import (
	"fmt"
	"math"
	"slices"

	"agnn/internal/par"
	"agnn/internal/sparse"
)

// Partition describes a contiguous 1D block partition of [0, n) into p
// ranges, the vertex ownership scheme of the distributed local baseline.
type Partition struct {
	N, P   int
	Bounds []int // len P+1, Bounds[r]..Bounds[r+1] owned by rank r
}

// Partition1D splits n vertices into p nearly equal contiguous blocks.
func Partition1D(n, p int) Partition {
	if p < 1 || n < 0 {
		panic(fmt.Sprintf("graph: Partition1D(%d, %d)", n, p))
	}
	bounds := make([]int, p+1)
	base, rem := n/p, n%p
	for r := 0; r < p; r++ {
		sz := base
		if r < rem {
			sz++
		}
		bounds[r+1] = bounds[r] + sz
	}
	return Partition{N: n, P: p, Bounds: bounds}
}

// Owner returns the rank owning vertex v.
func (pt Partition) Owner(v int) int {
	lo, hi := 0, pt.P
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if pt.Bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Range returns the [lo, hi) vertex range of rank r.
func (pt Partition) Range(r int) (int, int) { return pt.Bounds[r], pt.Bounds[r+1] }

// SquareGrid returns s = √p for a perfect-square process count, or an error
// describing the requirement. The theoretical analysis (Section 7.1) and
// the distributed global engine slice A into √p × √p blocks.
func SquareGrid(p int) (int, error) {
	s := int(math.Round(math.Sqrt(float64(p))))
	if s*s != p {
		return 0, fmt.Errorf("graph: process count %d is not a perfect square", p)
	}
	return s, nil
}

// PadTo returns the smallest multiple of b that is >= n.
func PadTo(n, b int) int {
	if b <= 0 {
		panic("graph: PadTo with non-positive block")
	}
	return (n + b - 1) / b * b
}

// Prep is a model's preprocessing of its adjacency matrix (the choice
// gnn.Config.Prep makes): none, Â = A + I with unit values
// (AddSelfLoops), or GCN's D̂^{-½}·Â·D̂^{-½} (NormalizeGCN).
type Prep uint8

const (
	PrepNone Prep = iota
	PrepSelfLoops
	PrepGCN
)

// Apply returns p applied to the whole of a.
func (p Prep) Apply(a *sparse.CSR) *sparse.CSR {
	switch p {
	case PrepSelfLoops:
		return AddSelfLoops(a)
	case PrepGCN:
		return NormalizeGCN(a)
	}
	return a
}

// Block cuts the rows×cols block of p.Apply(a) whose corner is global
// (r0, c0) straight from a, bit for bit what cutting p.Apply(a) gives, with
// no copy of the whole graph: the 2D distribution's stationary block
// A_ij (r0 = i·bs, c0 = j·bs, bs×bs) or the 1D row block (c0 = 0, all
// columns). Rows and columns past a's bounds are empty padding. a's rows
// must be sorted (the CSR convention). Each row's column range is two
// binary searches; the preprocessing is applied inside the block: the
// diagonal entry merged in on the real rows it crosses, unit values, and
// GCN's D̂^{-½} from the degrees of only the vertices the block touches. A
// pattern's block under PrepNone is a pattern, and under PrepSelfLoops so is
// any block with no sum 0, as AddSelfLoops decides for the whole; GCN's
// block holds its values.
func Block(a *sparse.CSR, p Prep, r0, c0, rows, cols int) *sparse.CSR {
	if p != PrepNone && a.Rows != a.Cols {
		panic("graph: Block preprocesses a square matrix only")
	}
	live := min(rows, max(a.Rows-r0, 0)) // block rows inside a
	c1 := c0 + cols
	// span returns the entries [lo, hi) of a's row i inside the block's
	// columns, and whether the block adds the row's diagonal entry.
	span := func(i int) (lo, hi int64, diag bool) {
		start, row := a.RowPtr[i], a.Col[a.RowPtr[i]:a.RowPtr[i+1]]
		l, _ := slices.BinarySearch(row, int32(min(c0, a.Cols)))
		h, _ := slices.BinarySearch(row, int32(min(c1, a.Cols)))
		if p != PrepNone && c0 <= i && i < c1 {
			_, has := slices.BinarySearch(row[l:h], int32(i))
			diag = !has
		}
		return start + int64(l), start + int64(h), diag
	}
	out := &sparse.CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	for r := 0; r < rows; r++ {
		out.RowPtr[r+1] = out.RowPtr[r]
		if r < live {
			lo, hi, diag := span(r0 + r)
			out.RowPtr[r+1] += hi - lo
			if diag {
				out.RowPtr[r+1]++
			}
		}
	}
	out.Col = make([]int32, out.RowPtr[rows])
	if a.Val != nil || p == PrepGCN {
		out.Val = make([]float64, out.RowPtr[rows])
	}
	var rs, cs []float64 // GCN: D̂^{-½} of the block's rows and columns
	if p == PrepGCN {
		rs = invSqrtDegrees(a, r0, r0+live)
		cs = invSqrtDegrees(a, min(c0, a.Rows), min(c1, a.Rows))
	}
	// value is entry (i, j) of p.Apply(a) for a's value v there, as
	// AddSelfLoops and NormalizeGCN compute it.
	value := func(i, j int, v float64) float64 {
		if p == PrepNone {
			return v
		}
		if i == j {
			v++
		}
		if v != 0 {
			v = 1
		}
		if p == PrepGCN {
			v = v * rs[i-r0] * cs[j-c0]
		}
		return v
	}
	par.Range(live, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			i := r0 + r
			plo, phi, diag := span(i)
			q := out.RowPtr[r]
			put := func(j int, v float64) {
				out.Col[q] = int32(j - c0)
				if out.Val != nil {
					out.Val[q] = value(i, j, v)
				}
				q++
			}
			for k := plo; k < phi; k++ {
				j := int(a.Col[k])
				if diag && j > i {
					put(i, 0) // the diagonal entry Â adds: 0 + 1
					diag = false
				}
				put(j, a.ValueAt(k))
			}
			if diag {
				put(i, 0)
			}
		}
	})
	if p == PrepSelfLoops {
		return sparse.PatternIfUnit(out)
	}
	return out
}

// invSqrtDegrees returns 1/√d̂ for the vertices [lo, hi), d̂ being a
// vertex's degree in A + I with unit values: its non-zero entries, the
// diagonal counted as its value plus one (NormalizeGCN's row sums, exactly).
func invSqrtDegrees(a *sparse.CSR, lo, hi int) []float64 {
	out := make([]float64, max(hi-lo, 0))
	par.Range(len(out), func(_, l, h int) {
		for v := l; v < h; v++ {
			i, d, diag := lo+v, 0, false
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				val := a.ValueAt(k)
				if int(a.Col[k]) == i {
					val, diag = val+1, true
				}
				if val != 0 {
					d++
				}
			}
			if !diag {
				d++
			}
			if d > 0 {
				out[v] = 1 / math.Sqrt(float64(d))
			}
		}
	})
	return out
}

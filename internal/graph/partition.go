package graph

import (
	"fmt"
	"math"

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

// Block2D extracts the dense-grid block (bi, bj) of a as a standalone CSR
// of size bs×bs, padding with empty rows/columns beyond a's bounds. Block
// (bi, bj) covers global rows [bi·bs, (bi+1)·bs) and columns
// [bj·bs, (bj+1)·bs). This realizes the 2D distribution of the adjacency
// matrix over the process grid.
func Block2D(a *sparse.CSR, bi, bj, bs int) *sparse.CSR {
	coo := sparse.NewCOO(bs, bs, a.NNZ()/((a.Rows/bs)+1)+1)
	rLo, rHi := bi*bs, (bi+1)*bs
	cLo, cHi := bj*bs, (bj+1)*bs
	if rLo >= a.Rows {
		return sparse.FromCOO(coo)
	}
	if rHi > a.Rows {
		rHi = a.Rows
	}
	for i := rLo; i < rHi; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := int(a.Col[p])
			if j >= cLo && j < cHi {
				coo.AppendVal(int32(i-rLo), int32(j-cLo), a.Val[p])
			}
		}
	}
	return sparse.FromCOO(coo)
}

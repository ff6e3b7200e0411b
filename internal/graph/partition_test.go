package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func TestPartition1DCoversAndBalances(t *testing.T) {
	for _, tc := range [][2]int{{10, 3}, {100, 7}, {5, 5}, {4, 8}, {0, 2}} {
		n, p := tc[0], tc[1]
		pt := Partition1D(n, p)
		if pt.Bounds[0] != 0 || pt.Bounds[p] != n {
			t.Fatalf("n=%d p=%d bounds %v", n, p, pt.Bounds)
		}
		for r := 0; r < p; r++ {
			lo, hi := pt.Range(r)
			if hi < lo {
				t.Fatalf("negative range for rank %d", r)
			}
			if hi-lo > n/p+1 {
				t.Fatalf("imbalanced range %d..%d", lo, hi)
			}
		}
	}
}

func TestPartitionOwnerProperty(t *testing.T) {
	f := func(rawN uint8, rawP uint8) bool {
		n := int(rawN) + 1
		p := int(rawP)%8 + 1
		pt := Partition1D(n, p)
		for v := 0; v < n; v++ {
			r := pt.Owner(v)
			lo, hi := pt.Range(r)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquareGrid(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16, 64, 256} {
		s, err := SquareGrid(p)
		if err != nil || s*s != p {
			t.Fatalf("SquareGrid(%d) = %d, %v", p, s, err)
		}
	}
	if _, err := SquareGrid(8); err == nil {
		t.Fatal("SquareGrid(8) should fail")
	}
}

func TestPadTo(t *testing.T) {
	cases := [][3]int{{10, 4, 12}, {12, 4, 12}, {0, 4, 0}, {1, 7, 7}}
	for _, c := range cases {
		if got := PadTo(c[0], c[1]); got != c[2] {
			t.Fatalf("PadTo(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

// cutViaCOO is the oracle of Block: the block of an already preprocessed
// matrix, cut entry by entry through a COO and sorted back into a CSR.
func cutViaCOO(a *sparse.CSR, r0, c0, rows, cols int) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols, 0)
	for i := r0; i < min(r0+rows, a.Rows); i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := int(a.Col[p]); j >= c0 && j < c0+cols {
				coo.AppendFrom(int32(i-r0), int32(j-c0), a.Val, p)
			}
		}
	}
	return sparse.FromCOO(coo)
}

// awkwardGraph is a 64-vertex R-MAT graph made to test the preprocessing
// a block applies inside itself: diagonal entries (value 1, and -1, which
// Â's +1 cancels to an explicit 0), zero-valued entries and empty rows.
func awkwardGraph() *sparse.CSR {
	k := Kronecker(6, 6, 4)
	coo := sparse.NewCOO(k.Rows, k.Cols, k.NNZ()+k.Rows)
	for i := 0; i < k.Rows; i++ {
		if i%10 == 7 {
			continue // an empty row
		}
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j, v := k.Col[p], k.ValueAt(p)
			if (i+int(j))%5 == 0 {
				v = 0
			}
			coo.AppendVal(int32(i), j, v)
		}
		switch i % 4 {
		case 0:
			coo.AppendVal(int32(i), int32(i), 1)
		case 1:
			coo.AppendVal(int32(i), int32(i), -1)
		}
	}
	return sparse.FromCOO(coo)
}

// sameBits fails unless got and want are the same CSR bit for bit.
func sameBits(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) ||
		!slices.Equal(got.Col, want.Col) || len(got.Val) != len(want.Val) || (got.Val == nil) != (want.Val == nil) {
		t.Fatalf("%s: pattern differs from the cut of the preprocessed whole", what)
	}
	for q := range got.Val {
		if math.Float64bits(got.Val[q]) != math.Float64bits(want.Val[q]) {
			t.Fatalf("%s: entry %d is %v, want %v", what, q, got.Val[q], want.Val[q])
		}
	}
}

// TestBlock2DReassembles: the blocks of a p-rank grid (p = 1, 4, 9; 64
// vertices pad to 66 at p = 9, a ragged last block) reassemble the matrix,
// and under every preprocessing each grid block and each 1D row block is
// bitwise the cut of the preprocessed whole.
func TestBlock2DReassembles(t *testing.T) {
	a := awkwardGraph()
	n := a.Rows
	for _, p := range []int{1, 4, 9} {
		s, err := SquareGrid(p)
		if err != nil {
			t.Fatal(err)
		}
		bs := PadTo(n, s) / s
		full := tensor.NewDense(n, n)
		for bi := 0; bi < s; bi++ {
			for bj := 0; bj < s; bj++ {
				blk := Block(a, PrepNone, bi*bs, bj*bs, bs, bs)
				if blk.Rows != bs || blk.Cols != bs {
					t.Fatalf("block shape %d×%d", blk.Rows, blk.Cols)
				}
				bd := blk.ToDense()
				for i := 0; i < bs && bi*bs+i < n; i++ {
					for j := 0; j < bs && bj*bs+j < n; j++ {
						full.Set(bi*bs+i, bj*bs+j, bd.At(i, j))
					}
				}
			}
		}
		if !full.ApproxEqual(a.ToDense(), 0) {
			t.Fatalf("p=%d: 2D blocks do not reassemble the matrix", p)
		}
		for _, prep := range []Prep{PrepNone, PrepSelfLoops, PrepGCN} {
			whole := prep.Apply(a)
			for bi := 0; bi < s; bi++ {
				for bj := 0; bj < s; bj++ {
					sameBits(t, fmt.Sprintf("p=%d prep=%d block (%d,%d)", p, prep, bi, bj),
						Block(a, prep, bi*bs, bj*bs, bs, bs), cutViaCOO(whole, bi*bs, bj*bs, bs, bs))
				}
			}
			part := Partition1D(n, p)
			for r := 0; r < p; r++ {
				lo, hi := part.Range(r)
				sameBits(t, fmt.Sprintf("p=%d prep=%d rows of rank %d", p, prep, r),
					Block(a, prep, lo, 0, hi-lo, n), cutViaCOO(whole, lo, 0, hi-lo, n))
			}
		}
	}
}

func TestBlock2DPadding(t *testing.T) {
	a := pathGraph(5) // n = 5, pad to blocks of 3 → 2×2 grid with ragged edge
	blk := Block(a, PrepNone, 3, 3, 3, 3)
	// Rows 3..5 and cols 3..5: contains edge (3,4) and (4,3).
	d := blk.ToDense()
	if d.At(0, 1) != 1 || d.At(1, 0) != 1 {
		t.Fatalf("padded block content wrong: %v", d)
	}
	// Self loops land on the real rows of the diagonal block only.
	loops := Block(a, PrepSelfLoops, 3, 3, 3, 3).ToDense()
	if loops.At(0, 0) != 1 || loops.At(1, 1) != 1 || loops.At(2, 2) != 0 {
		t.Fatalf("self loops of the padded block wrong: %v", loops)
	}
	// Block fully outside the matrix must be empty.
	for _, prep := range []Prep{PrepNone, PrepSelfLoops, PrepGCN} {
		if empty := Block(a, prep, 6, 6, 3, 3); empty.NNZ() != 0 || empty.Rows != 3 {
			t.Fatalf("prep %d: out-of-range block must be empty", prep)
		}
	}
}

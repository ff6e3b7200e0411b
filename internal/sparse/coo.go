// Package sparse implements the sparse-tensor substrate: COO and CSR
// matrices, the SpMM / SDDMM kernels of Table 2, semiring-generalized
// sparse-dense products (Section 4.3), pattern-restricted element-wise
// operations, and the global graph-softmax formulation (Section 4.2).
//
// All matrices in this package use 32-bit column indices; graphs are
// limited to 2^31-1 vertices and non-zeros, far beyond what a single
// simulated node processes in this reproduction.
//
// A matrix without values (Val nil, in a COO or a CSR) is a pattern: every
// stored value is 1. The paper's adjacency A is a sparsity mask, so that is
// what an unweighted graph is from its construction on; only a weighted one
// (GCN's D̂^{-½}·Â·D̂^{-½}, explicit edge weights) holds a value per entry.
// Every kernel here reads a pattern as its ones-valued twin, bit for bit.
package sparse

import "fmt"

// COO is a coordinate-format sparse matrix. Val may be nil, in which case
// every stored entry has the implicit value 1 (a pattern/adjacency matrix),
// and FromCOO builds a pattern CSR from it without allocating a value.
type COO struct {
	Rows, Cols int
	Row, Col   []int32
	Val        []float64
}

// NewCOO returns an empty COO with the given shape and capacity hint.
func NewCOO(rows, cols, capHint int) *COO {
	return &COO{
		Rows: rows,
		Cols: cols,
		Row:  make([]int32, 0, capHint),
		Col:  make([]int32, 0, capHint),
	}
}

// Len returns the number of stored entries (before deduplication).
func (c *COO) Len() int { return len(c.Row) }

// Append adds a pattern entry (i, j). Mixing Append and AppendVal on the
// same COO is not allowed.
func (c *COO) Append(i, j int32) {
	if c.Val != nil {
		panic("sparse: Append on a COO with explicit values")
	}
	c.Row = append(c.Row, i)
	c.Col = append(c.Col, j)
}

// AppendVal adds an entry (i, j, v).
func (c *COO) AppendVal(i, j int32, v float64) {
	if c.Val == nil && len(c.Row) > 0 {
		panic("sparse: AppendVal on a pattern COO")
	}
	if c.Val == nil {
		c.Val = make([]float64, 0, cap(c.Row))
	}
	c.Row = append(c.Row, i)
	c.Col = append(c.Col, j)
	c.Val = append(c.Val, v)
}

// AppendFrom adds entry (i, j) with value vals[p], or a pattern entry when
// vals is nil: copying a CSR's entries with its Val keeps a pattern a
// pattern. Every call on one COO passes a valued vals or every call nil.
func (c *COO) AppendFrom(i, j int32, vals []float64, p int64) {
	c.Row, c.Col, c.Val = append(c.Row, i), append(c.Col, j), AppendValues(c.Val, vals, p, p+1)
}

// countRows adds each row's number of entries to counts[i] (len Rows),
// validating every entry as it counts it: it panics on an index outside the
// shape.
func (c *COO) countRows(counts []int32) {
	counts = counts[:c.Rows]
	cols := c.Col[:len(c.Row)]
	for p, i := range c.Row {
		if uint(i) >= uint(len(counts)) || uint(cols[p]) >= uint(c.Cols) {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %d×%d", i, cols[p], c.Rows, c.Cols))
		}
		counts[i]++
	}
}

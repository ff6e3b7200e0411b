// Package local implements the *local* (message-passing) formulation of the
// A-GNN models — the established per-vertex/per-edge programming model of
// frameworks like DGL that the paper's global tensor formulation is
// compared against. Every model is written as gather/scatter loops over
// adjacency lists: transform each neighbor's feature vector with ψ,
// aggregate with ⊕ over N(v), update with φ (Section 2.2).
//
// The package exists for two reasons: it independently validates the global
// formulations (local ≡ global to rounding, DESIGN.md validation #1), and
// it is the single-node building block of the DistDGL-like distributed
// baseline whose Ω(nkd/p) communication the theory section bounds. A
// DistDGL-style mini-batch mode (neighborhood-expanded subgraphs around a
// seed batch) is provided by Sampler.
package local

import (
	"agnn/internal/sparse"
)

// Graph is an adjacency-list view of a (possibly weighted) directed graph,
// with both out-edge (CSR) and in-edge (CSC) indexes. InPos maps every
// in-edge back to its out-edge slot so per-edge quantities computed in
// row (out) order can be gathered race-free along columns.
type Graph struct {
	N      int
	OutPtr []int64
	OutCol []int32
	OutVal []float64 // nil for a pattern: every weight 1
	InPtr  []int64
	InCol  []int32 // source vertex of each in-edge
	InPos  []int64 // out-edge index of each in-edge
}

// FromCSR builds the adjacency-list view of a square CSR matrix.
func FromCSR(a *sparse.CSR) *Graph {
	if a.Rows != a.Cols {
		panic("local: FromCSR needs a square matrix")
	}
	g := &Graph{
		N:      a.Rows,
		OutPtr: a.RowPtr,
		OutCol: a.Col,
		OutVal: a.Val,
	}
	// Build the in-edge index (counting sort over columns).
	g.InPtr = make([]int64, a.Rows+1)
	for _, j := range a.Col {
		g.InPtr[j+1]++
	}
	for i := 0; i < a.Rows; i++ {
		g.InPtr[i+1] += g.InPtr[i]
	}
	g.InCol = make([]int32, a.NNZ())
	g.InPos = make([]int64, a.NNZ())
	next := append([]int64(nil), g.InPtr[:a.Rows]...)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.Col[p]
			q := next[j]
			next[j]++
			g.InCol[q] = int32(i)
			g.InPos[q] = p
		}
	}
	return g
}

// NNZ returns the number of directed edges.
func (g *Graph) NNZ() int { return len(g.OutCol) }

// OutDegree returns |N(v)| (out-neighbors).
func (g *Graph) OutDegree(v int) int { return int(g.OutPtr[v+1] - g.OutPtr[v]) }

// InDegree returns the in-neighbor count.
func (g *Graph) InDegree(v int) int { return int(g.InPtr[v+1] - g.InPtr[v]) }

// MaxDegree returns the maximum out-degree d, the parameter of the local
// formulation's Ω(nkd/p) communication bound.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.N; v++ {
		if od := g.OutDegree(v); od > d {
			d = od
		}
	}
	return d
}

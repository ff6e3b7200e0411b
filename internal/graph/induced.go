package graph

import (
	"fmt"
	"slices"
	"sync"

	"agnn/internal/sparse"
)

// Marks is a per-vertex int32 scratch array, zero everywhere between uses.
// It comes from a package pool and goes back with only the entries that were
// set cleared, so a query that touches a small part of a large graph costs
// what it touches, not the vertex count.
type Marks struct {
	At []int32 // indexed by global vertex id; 0 means unmarked

	// InducedSubgraph's row scratch, kept with the array it belongs beside.
	col  []int32
	val  []float64
	keys []uint64
	tmp  []float64
}

var marksPool sync.Pool

// BorrowMarks returns a zeroed mark array covering vertex ids [0, n).
func BorrowMarks(n int) *Marks {
	m, _ := marksPool.Get().(*Marks)
	if m == nil {
		m = &Marks{}
	}
	if len(m.At) < n {
		m.At = make([]int32, n)
	}
	return m
}

// Release clears the entries of touched, which must name every entry set
// non-zero, and returns m to the pool.
func (m *Marks) Release(touched []int32) {
	for _, v := range touched {
		m.At[v] = 0
	}
	marksPool.Put(m)
}

// InducedSubgraph extracts the subgraph induced by the given (distinct)
// global vertex ids: entry (x, y) of the result carries a's (vertices[x],
// vertices[y]) value, every row sorted by column, duplicates of a row summed.
// This is the global-formulation side of mini-batching: the paper notes its
// routines "straightforwardly extend to mini-batching", and running any gnn
// model on the induced adjacency of an expanded seed batch is exactly that
// extension. It is InducedRows with every row.
func InducedSubgraph(a *sparse.CSR, vertices []int32) *sparse.CSR {
	return InducedRows(a, vertices, len(vertices))
}

// InducedRows is the first r rows of InducedSubgraph(a, vertices): an
// r×len(vertices) block whose row x is the induced row of vertices[x], with
// the same columns, values and order. The rows of vertices[r:] are never
// read — for an ego network ordered by hop, the block a layer needs costs
// the rows it produces, not the whole ego.
//
// Global ids map to local ones through a pooled mark array (local id + 1),
// and each row of the result is built in place from a's row: its mapped
// columns are already ascending when the vertices are, and sorted otherwise.
// A call costs the rows it reads plus O(d log d) per unsorted row of length d.
func InducedRows(a *sparse.CSR, vertices []int32, r int) *sparse.CSR {
	m := BorrowMarks(max(a.Rows, a.Cols))
	local := m.At
	for li, v := range vertices {
		if local[v] != 0 {
			m.Release(vertices[:li])
			panic("graph: InducedSubgraph with duplicate vertex ids")
		}
		local[v] = int32(li) + 1
	}
	rowPtr := make([]int64, r+1)
	col, val := m.col[:0], m.val[:0]
	for li, v := range vertices[:r] {
		lo, hi := a.RowPtr[v], a.RowPtr[v+1]
		start, sorted := len(col), true
		for q, c := range a.Col[lo:hi] {
			lj := local[c]
			if lj == 0 {
				continue
			}
			if len(col) > start && lj-1 <= col[len(col)-1] {
				sorted = false
			}
			col = append(col, lj-1)
			val = append(val, a.Val[lo+int64(q)])
		}
		if !sorted {
			col, val = m.sortRow(col, val, start)
		}
		rowPtr[li+1] = int64(len(col))
	}
	out := &sparse.CSR{Rows: r, Cols: len(vertices), RowPtr: rowPtr,
		Col: append(make([]int32, 0, len(col)), col...),
		Val: append(make([]float64, 0, len(val)), val...)}
	m.col, m.val = col, val
	m.Release(vertices)
	return out
}

// Prefix returns the block a[:r, :c], sharing a's slices: the first r rows
// over the first c columns. None of those rows may hold an entry at or past
// column c — true of an ego ordered by hop (serving.ExpandBounds) when the
// rows are the vertices within h hops and the columns those within h+1.
func Prefix(a *sparse.CSR, r, c int) *sparse.CSR {
	if r == a.Rows && c == a.Cols {
		return a
	}
	end := a.RowPtr[r]
	if slices.ContainsFunc(a.Col[:end], func(j int32) bool { return int(j) >= c }) {
		panic(fmt.Sprintf("graph: the first %d rows have an entry past column %d", r, c))
	}
	return &sparse.CSR{Rows: r, Cols: c, RowPtr: a.RowPtr[:r+1], Col: a.Col[:end:end], Val: a.Val[:end:end]}
}

// sortRow sorts the row col[start:], val[start:] by column, summing the
// values of a repeated column in their original order, and returns the
// slices cut to the row's new end.
func (m *Marks) sortRow(col []int32, val []float64, start int) ([]int32, []float64) {
	rc, rv := col[start:], val[start:]
	keys := m.keys[:0]
	for q, c := range rc {
		keys = append(keys, uint64(uint32(c))<<32|uint64(q))
	}
	slices.Sort(keys)
	tmp := append(m.tmp[:0], rv...)
	w := 0
	for _, k := range keys {
		c, v := int32(k>>32), tmp[uint32(k)]
		if w > 0 && rc[w-1] == c {
			rv[w-1] += v
			continue
		}
		rc[w], rv[w] = c, v
		w++
	}
	m.keys, m.tmp = keys, tmp
	return col[:start+w], val[:start+w]
}

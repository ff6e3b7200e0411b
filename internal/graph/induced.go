package graph

import (
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

	// induced's row scratch, kept with the array it belongs beside.
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
// extension. It is InducedRows with every row, each row sorted.
func InducedSubgraph(a *sparse.CSR, vertices []int32) *sparse.CSR {
	return induced(a, vertices, len(vertices), true)
}

// InducedRows returns the first r rows of the subgraph induced by the given
// (distinct) global vertex ids: an r×len(vertices) block whose row x is a's
// row vertices[x] with the entries outside vertices dropped and the rest
// under their local ids, in a's order. The rows of vertices[r:] are never
// read — for an ego network ordered by hop, the block a layer needs costs the
// rows it produces, not the whole ego. A row keeps the order in which a sums
// its edges, so a row op over it computes what it computes over a's row.
func InducedRows(a *sparse.CSR, vertices []int32, r int) *sparse.CSR {
	return induced(a, vertices, r, false)
}

// induced maps global ids to local ones through a pooled mark array (local
// id + 1) and builds each row of the result in place from a's row, sorting
// it if asked to and its mapped columns are not already strictly ascending.
// A call costs the rows it reads plus O(d log d) per sorted row of length d.
// A pattern's block is a pattern.
func induced(a *sparse.CSR, vertices []int32, r int, sorted bool) *sparse.CSR {
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
		start, ascending := len(col), true
		for q, c := range a.Col[lo:hi] {
			lj := local[c]
			if lj == 0 {
				continue
			}
			if len(col) > start && lj-1 <= col[len(col)-1] {
				ascending = false
			}
			col = append(col, lj-1)
			val = sparse.AppendValues(val, a.Val, lo+int64(q), lo+int64(q)+1)
		}
		if sorted && !ascending && a.Val == nil {
			slices.Sort(col[start:])
			col = col[:start+len(slices.Compact(col[start:]))]
		} else if sorted && !ascending {
			col, val = m.sortRow(col, val, start)
		}
		rowPtr[li+1] = int64(len(col))
	}
	out := &sparse.CSR{Rows: r, Cols: len(vertices), RowPtr: rowPtr,
		Col: append(make([]int32, 0, len(col)), col...),
		Val: append(sparse.ValuesLike(a.Val, len(val))[:0], val...)}
	m.col, m.val = col, val
	m.Release(vertices)
	return out
}

// RowBlock returns the len(rows)×a.Cols block whose row x is a's row rows[x]
// under its global column ids, in a's order: the rows of the global product a
// query for those vertices reads, A[rows, :]. With within non-nil, only the
// entries whose column is one of within stay — the rows of an ego network cut
// at its edge. A pattern's block is a pattern.
func RowBlock(a *sparse.CSR, rows, within []int32) *sparse.CSR {
	rowPtr := make([]int64, len(rows)+1)
	if within == nil {
		for x, v := range rows {
			rowPtr[x+1] = rowPtr[x] + a.RowPtr[v+1] - a.RowPtr[v]
		}
		out := &sparse.CSR{Rows: len(rows), Cols: a.Cols, RowPtr: rowPtr,
			Col: make([]int32, rowPtr[len(rows)]), Val: sparse.ValuesLike(a.Val, int(rowPtr[len(rows)]))[:0]}
		for x, v := range rows {
			copy(out.Col[rowPtr[x]:rowPtr[x+1]], a.Col[a.RowPtr[v]:a.RowPtr[v+1]])
			out.Val = sparse.AppendValues(out.Val, a.Val, a.RowPtr[v], a.RowPtr[v+1])
		}
		return out
	}
	m := BorrowMarks(a.Cols)
	for _, v := range within {
		m.At[v] = 1
	}
	var col []int32
	val := sparse.ValuesLike(a.Val, 0)
	for x, v := range rows {
		lo, hi := a.RowPtr[v], a.RowPtr[v+1]
		for q, c := range a.Col[lo:hi] {
			if m.At[c] != 0 {
				col = append(col, c)
				val = sparse.AppendValues(val, a.Val, lo+int64(q), lo+int64(q)+1)
			}
		}
		rowPtr[x+1] = int64(len(col))
	}
	m.Release(within)
	return &sparse.CSR{Rows: len(rows), Cols: a.Cols, RowPtr: rowPtr, Col: col, Val: val}
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

package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/serving"
	"agnn/internal/sparse"
)

// randomDirected is a directed graph with m random weighted edges (repeats
// summed by FromCOO) and no row sorted by construction.
func randomDirected(n, m int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	c := sparse.NewCOO(n, n, m)
	for i := 0; i < m; i++ {
		c.AppendVal(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.NormFloat64())
	}
	return sparse.FromCOO(c)
}

// weighted gives a's pattern random values.
func weighted(a *sparse.CSR, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, a.NNZ())
	for i := range v {
		v[i] = rng.Float64() + 0.5
	}
	return a.WithValues(v)
}

// entry looks a(i, j) up in a's sorted row i.
func entry(a *sparse.CSR, i, j int32) (float64, bool) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	if q, ok := slices.BinarySearch(a.Col[lo:hi], j); ok {
		return a.ValueAt(lo + int64(q)), true
	}
	return 0, false
}

// checkInduced holds sub to the definition of the subgraph of a induced by
// vs: every row sorted, entry (x, y) = a(vs[x], vs[y]) bit for bit, and no
// entry that a does not have.
func checkInduced(t *testing.T, a, sub *sparse.CSR, vs []int32) {
	t.Helper()
	if sub.Rows != len(vs) || sub.Cols != len(vs) || len(sub.RowPtr) != len(vs)+1 {
		t.Fatalf("subgraph %d×%d with %d row pointers for %d vertices", sub.Rows, sub.Cols, len(sub.RowPtr), len(vs))
	}
	in := make(map[int32]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	for x, vx := range vs {
		lo, hi := sub.RowPtr[x], sub.RowPtr[x+1]
		row := sub.Col[lo:hi]
		for q := 1; q < len(row); q++ {
			if row[q-1] >= row[q] {
				t.Fatalf("row %d not strictly ascending: %v", x, row)
			}
		}
		for q, y := range row {
			want, ok := entry(a, vx, vs[y])
			if !ok || sub.ValueAt(lo+int64(q)) != want {
				t.Fatalf("entry (%d,%d) = %v, a(%d,%d) = %v (present %t)", x, y, sub.ValueAt(lo+int64(q)), vx, vs[y], want, ok)
			}
		}
		inside := 0
		for _, c := range a.Col[a.RowPtr[vx]:a.RowPtr[vx+1]] {
			if in[c] {
				inside++
			}
		}
		if inside != len(row) {
			t.Fatalf("row %d holds %d entries, a's row %d has %d inside the vertex set", x, len(row), vx, inside)
		}
	}
}

// checkExpandOrder holds verts to Expand's order: the seeds as given, then
// each BFS frontier ascending, every vertex once, the frontiers exactly the
// vertices at that distance.
func checkExpandOrder(t *testing.T, a *sparse.CSR, seeds, verts []int32, hops int) {
	t.Helper()
	if !slices.Equal(verts[:len(seeds)], seeds) {
		t.Fatalf("expansion starts %v, want the seeds %v", verts[:len(seeds)], seeds)
	}
	dist := map[int32]int{}
	for _, s := range seeds {
		dist[s] = 0
	}
	frontier, at := seeds, len(seeds)
	for h := 1; h <= hops; h++ {
		var next []int32
		for _, v := range frontier {
			for _, c := range a.Col[a.RowPtr[v]:a.RowPtr[v+1]] {
				if _, ok := dist[c]; !ok {
					dist[c] = h
					next = append(next, c)
				}
			}
		}
		slices.Sort(next)
		if at+len(next) > len(verts) || !slices.Equal(verts[at:at+len(next)], next) {
			t.Fatalf("hop %d of the expansion is not the ascending frontier %v", h, next)
		}
		frontier, at = next, at+len(next)
	}
	if at != len(verts) {
		t.Fatalf("expansion holds %d vertices beyond the last frontier", len(verts)-at)
	}
}

func TestInducedSubgraphMatchesDefinition(t *testing.T) {
	hub := weighted(graph.AddSelfLoops(graph.Kronecker(13, 16, 5)), 6)
	hubRow := int32(0)
	for v := 1; v < hub.Rows; v++ {
		if hub.RowNNZ(v) > hub.RowNNZ(int(hubRow)) {
			hubRow = int32(v)
		}
	}
	if hub.RowNNZ(int(hubRow)) < 1000 {
		t.Fatalf("the R-MAT graph's longest row has %d entries, want a hub", hub.RowNNZ(int(hubRow)))
	}
	cases := []struct {
		name  string
		a     *sparse.CSR
		seeds []int32
	}{
		{"directed", randomDirected(300, 1500, 1), []int32{7}},
		{"directed-dense", randomDirected(60, 1800, 2), []int32{3, 50, 1}},
		{"directed-seeds-descending", randomDirected(500, 2000, 3), []int32{499, 250, 3, 0}},
		{"rmat-hub", hub, []int32{hubRow}},
		{"rmat-hub-and-leaves", hub, []int32{5, hubRow, 4000, 17}},
		{"isolated", sparse.Identity(10), []int32{9, 2}},
	}
	for _, c := range cases {
		for hops := 0; hops <= 3; hops++ {
			t.Run(fmt.Sprintf("%s/hops=%d", c.name, hops), func(t *testing.T) {
				verts, bounds := serving.ExpandBounds(c.a, c.seeds, hops)
				checkExpandOrder(t, c.a, c.seeds, verts, hops)
				checkBounds(t, c.a, c.seeds, verts, bounds, hops)
				sq := graph.InducedSubgraph(c.a, verts)
				checkInduced(t, c.a, sq, verts)
				checkBlocks(t, c.a, sq, verts, bounds)
				// Any order of the same vertices, its reverse included.
				rev := slices.Clone(verts)
				slices.Reverse(rev)
				checkInduced(t, c.a, graph.InducedSubgraph(c.a, rev), rev)
			})
		}
	}
	t.Run("empty", func(t *testing.T) {
		checkInduced(t, hub, graph.InducedSubgraph(hub, nil), nil)
	})
	t.Run("duplicate-panics", func(t *testing.T) {
		a := randomDirected(20, 80, 4)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("duplicate vertex ids did not panic")
				}
			}()
			graph.InducedSubgraph(a, []int32{1, 5, 9, 5})
		}()
		// The marks the panicking call set are cleared: the next call on
		// the same vertices sees none of them.
		vs := []int32{5, 9, 1}
		checkInduced(t, a, graph.InducedSubgraph(a, vs), vs)
	})
}

// checkBounds holds bounds to ExpandBounds' contract: it starts at the seeds,
// each entry is where that hop's frontier ends in verts, and it stops at hops
// or where the frontiers run dry.
func checkBounds(t *testing.T, a *sparse.CSR, seeds, verts []int32, bounds []int, hops int) {
	t.Helper()
	if !slices.Equal(serving.Expand(a, seeds, hops), verts) {
		t.Fatal("ExpandBounds and Expand disagree on the vertices")
	}
	if len(bounds) == 0 || bounds[0] != len(seeds) || bounds[len(bounds)-1] != len(verts) || len(bounds) > hops+1 {
		t.Fatalf("bounds %v for %d seeds, %d vertices, %d hops", bounds, len(seeds), len(verts), hops)
	}
	for h := 1; h < len(bounds); h++ {
		if bounds[h] <= bounds[h-1] {
			t.Fatalf("bounds %v: hop %d adds no vertex", bounds, h)
		}
		if want := len(serving.Expand(a, seeds, h)); bounds[h] != want {
			t.Fatalf("bounds[%d] = %d, %d vertices within %d hops", h, bounds[h], want, h)
		}
	}
	if len(bounds) <= hops && len(serving.Expand(a, seeds, len(bounds))) != len(verts) {
		t.Fatalf("bounds %v stop before %d hops, but the frontiers have not run dry", bounds, hops)
	}
}

// row returns row i of a: its columns and values.
func row(a *sparse.CSR, i int32) ([]int32, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	vals := make([]float64, hi-lo)
	for q := range vals {
		vals[q] = a.ValueAt(lo + int64(q))
	}
	return a.Col[lo:hi], vals
}

// checkBlocks holds the message-flow blocks of an ego query to a and to the
// square induced subgraph sq, for the vertices within each hop h, rows
// verts[:bounds[h]]: InducedRows is a's rows cut to the ego, under local
// ids and in a's order, and sorted it is sq's first rows; RowBlock keeps a's
// rows whole under their global ids, and cut at the ego's edge it is
// InducedRows under global ids.
func checkBlocks(t *testing.T, a, sq *sparse.CSR, verts []int32, bounds []int) {
	t.Helper()
	in := make(map[int32]bool, len(verts))
	for _, v := range verts {
		in[v] = true
	}
	for _, r := range bounds {
		rows := graph.InducedRows(a, verts, r)
		whole := graph.RowBlock(a, verts[:r], nil)
		cut := graph.RowBlock(a, verts[:r], verts)
		if rows.Rows != r || rows.Cols != len(verts) || whole.Rows != r || whole.Cols != a.Cols || cut.Rows != r || cut.Cols != a.Cols {
			t.Fatalf("blocks of %d rows: InducedRows %d×%d, RowBlock %d×%d and %d×%d", r,
				rows.Rows, rows.Cols, whole.Rows, whole.Cols, cut.Rows, cut.Cols)
		}
		for x, v := range verts[:r] {
			ac, av := row(a, v)
			wc, wv := row(whole, int32(x))
			if !slices.Equal(wc, ac) || !slices.Equal(wv, av) {
				t.Fatalf("RowBlock row %d is not a's row %d", x, v)
			}
			var keepC []int32
			var keepV []float64
			for q, c := range ac {
				if in[c] {
					keepC, keepV = append(keepC, c), append(keepV, av[q])
				}
			}
			cc, cv := row(cut, int32(x))
			if !slices.Equal(cc, keepC) || !slices.Equal(cv, keepV) {
				t.Fatalf("RowBlock row %d cut at the ego is not a's row %d cut there, in a's order", x, v)
			}
			lc, lv := row(rows, int32(x))
			global := make([]int32, len(lc))
			for q, y := range lc {
				global[q] = verts[y]
			}
			if !slices.Equal(global, keepC) || !slices.Equal(lv, keepV) {
				t.Fatalf("InducedRows row %d is not a's row %d cut at the ego under local ids", x, v)
			}
			order := make([]int, len(lc))
			for q := range order {
				order[q] = q
			}
			slices.SortFunc(order, func(p, q int) int { return int(lc[p]) - int(lc[q]) })
			sc, sv := row(sq, int32(x))
			if len(sc) != len(lc) {
				t.Fatalf("InducedRows row %d holds %d entries, row %d of the square subgraph %d", x, len(lc), x, len(sc))
			}
			for q, o := range order {
				if sc[q] != lc[o] || sv[q] != lv[o] {
					t.Fatalf("InducedRows row %d sorted is not row %d of the square subgraph", x, x)
				}
			}
		}
	}
}

// BenchmarkInducedSubgraph extracts 2-hop ego subgraphs the size of a
// serving query (≈ 700 vertices) from a 32k-vertex graph, a different ego
// every iteration, so the rows it reads are cold as they are under a stream
// of queries.
func BenchmarkInducedSubgraph(b *testing.B) {
	a := weighted(graph.AddSelfLoops(graph.ErdosRenyi(1<<15, 13<<15, 1)), 2)
	const egos = 256
	rng := rand.New(rand.NewSource(3))
	verts := make([][]int32, egos)
	nnz := 0
	for i := range verts {
		verts[i] = serving.Expand(a, []int32{int32(rng.Intn(a.Rows))}, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nnz += graph.InducedSubgraph(a, verts[i%egos]).NNZ()
	}
	b.ReportMetric(float64(nnz)/float64(b.N), "nnz/op")
}

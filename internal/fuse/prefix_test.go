package fuse_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/par"
	"agnn/internal/tensor"
)

// rowBits returns the bits of row i of m, at m's width.
func rowBits(m tensor.Typed, i int) []uint64 {
	var out []uint64
	if m.F32 != nil {
		k := m.F32.Cols
		for _, v := range m.F32.Data[i*k : (i+1)*k] {
			out = append(out, uint64(math.Float32bits(v)))
		}
		return out
	}
	for _, v := range m.F64.Row(i) {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestPrefixTablesMatchQueryPlans: the tables EvalPrefix evaluates once over
// every vertex hold, in row v, the bits the whole layer's inference plan
// computes for vertex v inside a query over a gathered subset (a row block of
// a shuffled vertex set) — for GAT, 2-head GAT, GCN and AGNN, at both widths,
// on one worker and on three. A float32 prefix is a float32 table, and the
// input's own table at float64 is the feature matrix itself.
func TestPrefixTablesMatchQueryPlans(t *testing.T) {
	const k = 8
	a := graph.AddSelfLoops(graph.ErdosRenyi(300, 1500, 7))
	h := tensor.RandN(a.Rows, k, 1, rand.New(rand.NewSource(8)))
	verts := make([]int32, 120)
	for i, v := range rand.New(rand.NewSource(9)).Perm(a.Rows)[:len(verts)] {
		verts[i] = int32(v)
	}
	block := graph.InducedRows(a, verts, 40)
	sub := tensor.NewDense(len(verts), k)
	for i, v := range verts {
		copy(sub.Row(i), h.Row(int(v)))
	}
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		l        gnn.DAGLayer
		frontier string
	}{
		{gnn.NewGATLayer(a, k, 6, gnn.ReLU(), 0.2, rng), "Hp,u,v"},
		{gnn.NewMultiHeadGATLayer(a, k, 3, 2, true, gnn.ReLU(), 0.2, rng), "Hp.h0,u.h0,v.h0,Hp.h1,u.h1,v.h1"},
		{gnn.NewGCNLayer(a, k, 6, gnn.ReLU(), rng), "HW"},
		{gnn.NewAGNNLayer(a, k, 6, gnn.ReLU(), rng), "H,n,HW"}, // W narrows: Ψ·(H·W)
	}
	defer par.SetWorkers(par.SetWorkers(1))
	for _, c := range cases {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, workers := range []int{1, 3} {
				par.SetWorkers(workers)
				g := fuse.NewGraph(c.l.Name(), a)
				c.l.DAG(g, g.InputDense("H", a.Rows, k))
				frontier, tables, err := g.EvalPrefix(h, dt)
				if err != nil {
					t.Fatal(err)
				}
				var ids []string
				for _, n := range frontier {
					ids = append(ids, n.ID)
				}
				if got := strings.Join(ids, ","); got != c.frontier {
					t.Fatalf("%s: frontier %s, want %s", c.l.Name(), got, c.frontier)
				}
				q := fuse.NewGraph(c.l.Name(), block)
				c.l.DAG(q, q.InputDense("H", block.Cols, k))
				_, vals := fuse.QueryFrontierValues(q, tensor.Typed{F64: sub}, dt)
				for f, tb := range tables {
					if (tb.F32 != nil) != (dt == tensor.F32) {
						t.Fatalf("%s %s: table %s is not at the plan's width", c.l.Name(), dt, ids[f])
					}
					if ids[f] == "H" && dt == tensor.F64 && tb.F64 != h {
						t.Fatalf("%s: the input's float64 table is a copy of the features", c.l.Name())
					}
					for i, v := range verts {
						if !slices.Equal(rowBits(tb, int(v)), rowBits(vals[f], i)) {
							t.Fatalf("%s %s workers=%d: %s row of vertex %d differs from the query plan's", c.l.Name(), dt, workers, ids[f], v)
						}
					}
				}
			}
		}
	}
}

// TestFromRefusesWhatItCannotRun: a plan FromTables is inference-only, its
// nodes must cover everything it reads of the input, and it reads no table
// row for row.
func TestFromRefusesWhatItCannotRun(t *testing.T) {
	a := graph.AddSelfLoops(graph.ErdosRenyi(20, 60, 3))
	l := gnn.NewGATLayer(a, 4, 3, gnn.ReLU(), 0.2, rand.New(rand.NewSource(1)))
	build := func(from ...string) *fuse.Graph {
		g := fuse.NewGraph("gat", a)
		l.DAG(g, g.InputDense("H", a.Rows, 4))
		g.FromTables(from)
		return g
	}
	if _, err := build("Hp", "u", "v").Compile(fuse.Options{Train: true}); err == nil {
		t.Fatal("a training plan from bound nodes compiled")
	}
	if _, err := build("u", "v").Compile(fuse.Options{}); err == nil {
		t.Fatal("a plan that recomputes Hp from an unbound input compiled")
	}
	if _, err := build("Hp", "u", "v").Compile(fuse.Options{}); err != nil {
		t.Fatal(err)
	}
	g := fuse.NewGraph("rowlocal", graph.RowBlock(a, []int32{3, 1}, nil))
	act := fuse.Act{Name: "id", F: func(x float64) float64 { return x }, DF: func(float64) float64 { return 1 }}
	g.SetOutput(g.Sigma("Z", g.InputDense("H", a.Rows, 4), act))
	g.FromTables([]string{"H"})
	if _, err := g.Compile(fuse.Options{}); err == nil {
		t.Fatal("a plan FromTables that reads a table row for row compiled")
	}
}

// gatherTyped returns rows verts of the table m, at m's width.
func gatherTyped(m tensor.Typed, verts []int32) tensor.Typed {
	if m.F32 != nil {
		k := m.F32.Cols
		out := &tensor.Mat[float32]{Rows: len(verts), Cols: k, Data: make([]float32, len(verts)*k)}
		for i, v := range verts {
			copy(out.Data[i*k:(i+1)*k], m.F32.Data[int(v)*k:(int(v)+1)*k])
		}
		return tensor.Typed{F32: out}
	}
	out := tensor.NewDense(len(verts), m.F64.Cols)
	for i, v := range verts {
		copy(out.Row(i), m.F64.Row(int(v)))
	}
	return tensor.Typed{F64: out}
}

// TestFromTablesReadsRowsAndColumns: a plan compiled FromTables over the
// row block A[S, :] under global column ids reads the prefix tables in place
// along the columns and, for the nodes some op reads along the rows (the row
// column), the tables' rows for S — and its output is, row for row, bit for
// bit the full graph's rows S. For GAT, AGNN, VA and GIN, at both widths, on
// one worker and on three, with S shuffled.
func TestFromTablesReadsRowsAndColumns(t *testing.T) {
	const k = 8
	a := graph.AddSelfLoops(graph.ErdosRenyi(300, 1500, 11))
	h := tensor.RandN(a.Rows, k, 1, rand.New(rand.NewSource(12)))
	verts := make([]int32, 40)
	for i, v := range rand.New(rand.NewSource(13)).Perm(a.Rows)[:len(verts)] {
		verts[i] = int32(v)
	}
	block := graph.RowBlock(a, verts, nil)
	rng := rand.New(rand.NewSource(14))
	cases := []struct {
		l             gnn.DAGLayer
		frontier, row string
	}{
		{gnn.NewGATLayer(a, k, 6, gnn.ReLU(), 0.2, rng), "Hp,u,v", "u"},
		{gnn.NewAGNNLayer(a, k, 6, gnn.ReLU(), rng), "H,n,HW", "H,n"},
		{gnn.NewVALayer(a, k, 6, gnn.ReLU(), rng), "H,HW", "H"},
		{gnn.NewGINLayer(a, k, 5, 6, gnn.ReLU(), rng), "H", "H"},
	}
	defer par.SetWorkers(par.SetWorkers(1))
	for _, c := range cases {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, workers := range []int{1, 3} {
				par.SetWorkers(workers)
				g := fuse.NewGraph(c.l.Name(), a)
				c.l.DAG(g, g.InputDense("H", a.Rows, k))
				full := g.MustCompile(fuse.Options{DType: dt}).ForwardTyped(tensor.Typed{F64: h})
				frontier, tables, err := g.EvalPrefix(h, dt)
				if err != nil {
					t.Fatal(err)
				}
				var ids, rows []string
				leaves := slices.Clone(tables)
				for f, n := range frontier {
					ids = append(ids, n.ID)
					if g.ReadsRows(n) {
						rows = append(rows, n.ID)
						leaves = append(leaves, gatherTyped(tables[f], verts))
					}
				}
				if got := strings.Join(ids, ","); got != c.frontier {
					t.Fatalf("%s: frontier %s, want %s", c.l.Name(), got, c.frontier)
				}
				if got := strings.Join(rows, ","); got != c.row {
					t.Fatalf("%s: read along the rows %s, want %s", c.l.Name(), got, c.row)
				}
				q := fuse.NewGraph(c.l.Name(), block)
				c.l.DAG(q, q.InputDense("H", block.Cols, k))
				q.FromTables(ids)
				out := q.MustCompile(fuse.Options{DType: dt}).ForwardFrom(leaves)
				for i, v := range verts {
					if !slices.Equal(rowBits(out, i), rowBits(full, int(v))) {
						t.Fatalf("%s %s workers=%d: block row %d (vertex %d) differs from the full graph's", c.l.Name(), dt, workers, i, v)
					}
				}
			}
		}
	}
}

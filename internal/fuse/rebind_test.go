package fuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

const rebindK = 6

// rebindModel builds one layer DAG over a pattern, drawing its parameters
// from a fixed seed, so a graph built over any pattern has the same values.
type rebindModel struct {
	name  string
	build func(a *sparse.CSR) (*fuse.Graph, []fuse.ParamRef)
}

// rebindModels are the golden kinds and a 2-head GAT.
func rebindModels() []rebindModel {
	var out []rebindModel
	for mi, model := range goldenModels {
		out = append(out, rebindModel{model.name, func(a *sparse.CSR) (*fuse.Graph, []fuse.ParamRef) {
			return model.build(a, rand.New(rand.NewSource(int64(2000+mi))), rebindK)
		}})
	}
	out = append(out, rebindModel{"gat-2head", func(a *sparse.CSR) (*fuse.Graph, []fuse.ParamRef) {
		rng := rand.New(rand.NewSource(2100))
		ps, names := paramSet{}, []string{"W", "a1", "a2", "W.h1", "a1.h1", "a2.h1"}
		for _, name := range names {
			cols := 1
			if name[0] == 'W' {
				cols = rebindK
			}
			ps[name] = randParam(rng, name, rebindK, cols)
		}
		params := make([]fuse.ParamRef, len(names))
		for i, name := range names {
			params[i] = ps[name]
		}
		return buildGATHeads(a, ps, 2, rebindK, true), params
	}})
	return out
}

// rebindRun is what two steps of a plan leave: the output, the input
// cotangent and every parameter's accumulated gradient, as bits.
type rebindRun struct{ out, gin []uint64 }

func bitsOf(dst []uint64, xs []float64) []uint64 {
	for _, v := range xs {
		dst = append(dst, math.Float64bits(v))
	}
	return dst
}

// runTwice clears the parameters' gradients and runs two steps of p on h
// (and, training, gOut), so the per-step clears and the += accumulation into
// Grad both take part.
func runTwice(p *fuse.Plan, params []fuse.ParamRef, h, gOut *tensor.Dense) rebindRun {
	for _, pr := range params {
		clear(pr.Grad.Data)
	}
	var r rebindRun
	for step := 0; step < 2; step++ {
		r.out = bitsOf(r.out[:0], p.Forward(h).Data)
		if p.Train() {
			r.gin = bitsOf(r.gin[:0], p.Backward(gOut).Data)
		}
	}
	for _, pr := range params {
		r.gin = bitsOf(r.gin, pr.Grad.Data)
	}
	return r
}

// rebindInputs draws a pattern's features and output cotangent.
func rebindInputs(a *sparse.CSR, seed int64) (h, gOut *tensor.Dense) {
	rng := rand.New(rand.NewSource(seed))
	return randDense(rng, a.Cols, rebindK), randDense(rng, a.Rows, rebindK)
}

// checkRebinds compiles m over pats[0], binds the plan to every pattern of
// pats in turn and requires, at each, the bits a plan freshly compiled over
// that pattern gives.
func checkRebinds(t *testing.T, what string, m rebindModel, opt fuse.Options, pats []*sparse.CSR) {
	t.Helper()
	fresh := make([]rebindRun, len(pats))
	for i, a := range pats {
		g, params := m.build(a)
		p := g.MustCompile(opt)
		h, gOut := rebindInputs(a, int64(i))
		fresh[i] = runTwice(p, params, h, gOut)
		p.Release()
	}
	g, params := m.build(pats[0])
	p := g.MustCompile(opt)
	defer p.Release()
	for i, a := range pats {
		if !p.Bind(a) {
			t.Fatalf("%s: the plan refused pattern %d", what, i)
		}
		h, gOut := rebindInputs(a, int64(i))
		got := runTwice(p, params, h, gOut)
		if !slices.Equal(got.out, fresh[i].out) {
			t.Errorf("%s: bound to pattern %d (%d×%d), the output differs from a fresh compile's", what, i, a.Rows, a.Cols)
		}
		if !slices.Equal(got.gin, fresh[i].gin) {
			t.Errorf("%s: bound to pattern %d (%d×%d), the input cotangent or a gradient differs from a fresh compile's", what, i, a.Rows, a.Cols)
		}
	}
}

// TestPlanRebindBitwise: a plan compiled once and bound A → a smaller B → a
// larger C → A again computes at each what a plan compiled over that pattern
// computes — output, input cotangent and every gradient, bit for bit — for
// the golden kinds and a 2-head GAT, at both widths, training and inference,
// on three workers (C is tall enough that every sweep splits). So does a
// plan FromTables bound to the row blocks of other queries, and a plan whose
// dead buffers are poisoned. A training plan over a weighted mask refuses an
// adjacency that flips between a pattern (Val nil) and valued, in both
// directions, and binds a ones-valued one over a weighted compile.
func TestPlanRebindBitwise(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(3))
	a, b, c := weightedGraph(150, 900, 31), weightedGraph(60, 300, 32), weightedGraph(400, 2400, 33)
	pats := []*sparse.CSR{a, b, c, a}
	for _, m := range rebindModels() {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, train := range []bool{false, true} {
				checkRebinds(t, fmt.Sprintf("%s/%s/train=%t", m.name, dt, train), m, fuse.Options{Train: train, DType: dt}, pats)
			}
		}
	}

	t.Run("poisoned", func(t *testing.T) {
		defer fuse.PoisonDead()()
		for _, m := range rebindModels() {
			checkRebinds(t, m.name+"/poisoned", m, fuse.Options{Train: true}, pats)
		}
	})

	t.Run("unit-weights", func(t *testing.T) {
		// ua, ub: patterns (Val nil); a ones-valued twin counts as weighted.
		ua := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, Col: a.Col}
		ub := &sparse.CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: c.RowPtr, Col: c.Col}
		ones := make([]float64, a.NNZ())
		for i := range ones {
			ones[i] = 1
		}
		va := rebindModels()[0] // a weighted mask with a VJP under training
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			g, _ := va.build(a)
			weighted := g.MustCompile(fuse.Options{Train: true, DType: dt})
			if weighted.Bind(ua) {
				t.Errorf("%s: a training plan over weighted values bound a pattern", dt)
			}
			if !weighted.Bind(a.WithValues(ones)) {
				t.Errorf("%s: a training plan over weighted values refused the ones-valued twin", dt)
			}
			weighted.Release()
			g, _ = va.build(ua)
			unitPlan := g.MustCompile(fuse.Options{Train: true, DType: dt})
			if unitPlan.Bind(b) {
				t.Errorf("%s: a training plan over a pattern bound a weighted adjacency", dt)
			}
			unitPlan.Release()
			// Within one kind the plan binds, and inference binds across kinds.
			checkRebinds(t, fmt.Sprintf("va/%s/unit", dt), va, fuse.Options{Train: true, DType: dt}, []*sparse.CSR{ua, ub, ua})
			checkRebinds(t, fmt.Sprintf("va/%s/infer-flips", dt), va, fuse.Options{DType: dt}, []*sparse.CSR{a, ub, b, ua})
		}
	})

	t.Run("from-tables", func(t *testing.T) {
		full := graph.AddSelfLoops(graph.ErdosRenyi(300, 1500, 34))
		h := tensor.RandN(full.Rows, rebindK, 1, rand.New(rand.NewSource(35)))
		rng := rand.New(rand.NewSource(36))
		var blocks [][]int32
		for _, n := range []int{40, 12, 120, 40} {
			verts := make([]int32, n)
			for i, v := range rng.Perm(full.Rows)[:n] {
				verts[i] = int32(v)
			}
			blocks = append(blocks, verts)
		}
		blocks[3] = blocks[0]
		for _, l := range []gnn.DAGLayer{gnn.NewGATLayer(full, rebindK, 5, gnn.ReLU(), 0.2, rng), gnn.NewAGNNLayer(full, rebindK, 5, gnn.ReLU(), rng)} {
			for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
				g := fuse.NewGraph(l.Name(), full)
				l.DAG(g, g.InputDense("H", full.Rows, rebindK))
				frontier, tables, err := g.EvalPrefix(h, dt)
				if err != nil {
					t.Fatal(err)
				}
				var ids []string
				for _, n := range frontier {
					ids = append(ids, n.ID)
				}
				query := func(block *sparse.CSR) *fuse.Plan {
					q := fuse.NewGraph(l.Name(), block)
					l.DAG(q, q.InputDense("H", block.Cols, rebindK))
					q.FromTables(ids)
					return q.MustCompile(fuse.Options{DType: dt})
				}
				leaves := func(verts []int32) []tensor.Typed {
					out := slices.Clone(tables)
					for f, n := range frontier {
						if g.ReadsRows(n) {
							out = append(out, gatherTyped(tables[f], verts))
						}
					}
					return out
				}
				var bound *fuse.Plan
				for i, verts := range blocks {
					block := graph.RowBlock(full, verts, nil)
					fp := query(block)
					want := fp.ForwardFrom(leaves(verts))
					if bound == nil {
						bound = query(block)
					} else if !bound.Bind(block) {
						t.Fatalf("%s %s: the plan refused block %d", l.Name(), dt, i)
					}
					got := bound.ForwardFrom(leaves(verts))
					for r := range verts {
						if !slices.Equal(rowBits(got, r), rowBits(want, r)) {
							t.Fatalf("%s %s: bound to block %d, row %d differs from a fresh compile's", l.Name(), dt, i, r)
						}
					}
					fp.Release()
				}
				bound.Release()
			}
		}
	})
}

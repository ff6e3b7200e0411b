package fuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

var tanhAct = fuse.Act{Name: "tanh", F: math.Tanh, DF: func(z float64) float64 {
	t := math.Tanh(z)
	return 1 - t*t
}}

func randDense(rng *rand.Rand, r, c int) *tensor.Dense {
	m := tensor.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randParam(rng *rand.Rand, name string, r, c int) fuse.ParamRef {
	return fuse.ParamRef{Name: name, Value: randDense(rng, r, c), Grad: tensor.NewDense(r, c)}
}

// weightedGraph gives the test adjacency non-unit values so the weighted
// mask semantics (A ⊙ C, not just the pattern) are actually exercised.
func weightedGraph(n, m int, seed int64) *sparse.CSR {
	a := graph.ErdosRenyi(n, m, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	vals := make([]float64, a.NNZ())
	for i := range vals {
		vals[i] = 0.25 + rng.Float64()
	}
	return a.WithValues(vals)
}

// project builds Z = Ψ·H·W in one of its two multiplication orders:
// Ψ·(H·W), the order the golden hashes and most tests here were recorded
// with, or — aggFirst — (Ψ·H)·W, the order gnn's VA and AGNN layers use.
func project(g *fuse.Graph, psi, h, wn *fuse.Node, aggFirst bool) *fuse.Node {
	if aggFirst {
		return g.MM("Z", g.SpMM("PsiH", psi, h), wn)
	}
	return g.SpMM("Z", psi, g.MM("HW", h, wn))
}

func buildVA(a *sparse.CSR, w fuse.ParamRef, k int) *fuse.Graph {
	return buildVAOrder(a, w, k, false)
}

func buildVAOrder(a *sparse.CSR, w fuse.ParamRef, k int, aggFirst bool) *fuse.Graph {
	g := fuse.NewGraph("va", a)
	h := g.InputDense("H", a.Rows, k)
	wn := g.ParamNode("W", w)
	psi := g.Mask("Psi", g.DotScores("HHt", h, h), true)
	g.SetOutput(g.Sigma("Hout", project(g, psi, h, wn, aggFirst), tanhAct))
	return g
}

func buildAGNN(a *sparse.CSR, w, beta fuse.ParamRef, k int) *fuse.Graph {
	return buildAGNNAct(a, w, beta, k, tanhAct)
}

func buildAGNNAct(a *sparse.CSR, w, beta fuse.ParamRef, k int, act fuse.Act) *fuse.Graph {
	return buildAGNNOrder(a, w, beta, k, act, false)
}

func buildAGNNOrder(a *sparse.CSR, w, beta fuse.ParamRef, k int, act fuse.Act, aggFirst bool) *fuse.Graph {
	g := fuse.NewGraph("agnn", a)
	h := g.InputDense("H", a.Rows, k)
	wn := g.ParamNode("W", w)
	bn := g.ParamNode("beta", beta)
	norms := g.RowNormsNode("n", h)
	cos := g.DivScores("C", g.DotScores("HHt", h, h), g.OuterScores("nnT", norms, norms))
	s := g.Mask("S", g.ScaleScores("betaC", cos, bn), true)
	psi := g.Softmax("Psi", s)
	g.SetOutput(g.Sigma("Hout", project(g, psi, h, wn, aggFirst), act))
	return g
}

func buildGAT(a *sparse.CSR, w, a1, a2 fuse.ParamRef, k int, slope float64) *fuse.Graph {
	return buildGATAct(a, w, a1, a2, k, slope, tanhAct)
}

func buildGATAct(a *sparse.CSR, w, a1, a2 fuse.ParamRef, k int, slope float64, act fuse.Act) *fuse.Graph {
	g := fuse.NewGraph("gat", a)
	h := g.InputDense("H", a.Rows, k)
	wn := g.ParamNode("W", w)
	a1n := g.ParamNode("a1", a1)
	a2n := g.ParamNode("a2", a2)
	hp := g.MM("Hp", h, wn)
	u := g.MatVecNode("u", hp, a1n)
	v := g.MatVecNode("v", hp, a2n)
	c := g.AddScores("C", g.RepRow("u1T", u), g.RepCol("1vT", v))
	e := g.Mask("E", g.LReLUScores("lreluC", c, slope), false)
	psi := g.Softmax("Psi", e)
	z := g.SpMM("Z", psi, hp)
	g.SetOutput(g.Sigma("Hout", z, act))
	return g
}

// TestPlanKernelCounts pins the compiled op count to the Section 6.2
// analysis: one kernel per op node the analysis leaves unfused, minus one
// more for each mask→softmax pair and each attention chain the compiler
// folds beyond the paper's rule.
func TestPlanKernelCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := weightedGraph(30, 90, 10)
	const k = 3
	cases := []struct {
		name string
		g    *fuse.Graph
		ops  int
	}{
		{"va", buildVA(a, randParam(rng, "W", k, k), k), 3},
		{"agnn", buildAGNN(a, randParam(rng, "W", k, k), randParam(rng, "beta", 1, 1), k), 4},
		{"gat", buildGAT(a, randParam(rng, "W", k, k), randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1), k, 0.2), 5},
	}
	for _, tc := range cases {
		p := tc.g.MustCompile(fuse.Options{Train: true})
		st := p.Stats()
		kc := -st.FusedVirtual
		for _, n := range tc.g.DAG().Nodes() {
			if n.Op != "input" {
				kc++
			}
		}
		if st.ForwardOps != tc.ops {
			t.Errorf("%s: ForwardOps = %d, want %d\n%s", tc.name, st.ForwardOps, tc.ops, p)
		}
		if st.ForwardOps != kc-st.SoftmaxFused-st.AttnFused {
			t.Errorf("%s: ForwardOps = %d, unfused nodes %d - fused %d - attn %d = %d",
				tc.name, st.ForwardOps, kc, st.SoftmaxFused, st.AttnFused,
				kc-st.SoftmaxFused-st.AttnFused)
		}
		if st.BackwardOps == 0 {
			t.Errorf("%s: training plan emitted no backward ops", tc.name)
		}
	}
}

// TestPlanBackwardFiniteDifference checks the reverse-traversal autodiff of
// the hardest graph (AGNN: softmax, division, scaling, row norms, weighted
// mask) against central differences, for the weight matrix, the scalar β,
// and the input features.
func TestPlanBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := weightedGraph(24, 70, 11)
	const k = 3
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	h := randDense(rng, a.Rows, k)
	r := randDense(rng, a.Rows, k)

	p := buildAGNN(a, w, beta, k).MustCompile(fuse.Options{Train: true})

	loss := func() float64 {
		out := p.Forward(h)
		s := 0.0
		for i, v := range out.Data {
			s += v * r.Data[i]
		}
		return s
	}

	p.Forward(h)
	hbar := p.Backward(r).Clone() // valid only until the next Forward, and loss runs one

	const eps, tol = 1e-6, 2e-4
	check := func(name string, data []float64, idx int, analytic float64) {
		t.Helper()
		orig := data[idx]
		data[idx] = orig + eps
		up := loss()
		data[idx] = orig - eps
		down := loss()
		data[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Errorf("%s[%d]: analytic %.8f, numeric %.8f", name, idx, analytic, numeric)
		}
	}

	for _, idx := range []int{0, 3, k*k - 1} {
		check("W", w.Value.Data, idx, w.Grad.Data[idx])
	}
	check("beta", beta.Value.Data, 0, beta.Grad.Data[0])
	for _, idx := range []int{0, 7, len(h.Data) - 1} {
		check("H", h.Data, idx, hbar.Data[idx])
	}
}

// TestPlanSteadyStateAllocs pins the tentpole property: once warmed up, a
// compiled plan's forward and backward steps allocate nothing — at either
// element width, the boundary casts of f32 plans and the fused-attention
// inference op (whose score rows live in per-worker scratch) included.
func TestPlanSteadyStateAllocs(t *testing.T) {
	old := par.Workers()
	par.SetWorkers(1)
	defer par.SetWorkers(old)

	rng := rand.New(rand.NewSource(6))
	a := weightedGraph(64, 256, 12)
	const k = 8
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	h := randDense(rng, a.Rows, k)
	r := randDense(rng, a.Rows, k)

	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		t.Run(dt.String(), func(t *testing.T) {
			infer := buildAGNN(a, w, beta, k).MustCompile(fuse.Options{DType: dt})
			if infer.Stats().AttnFused == 0 {
				t.Fatal("inference plan did not fuse the attention chain")
			}
			infer.Forward(h) // warm up per-worker scratch
			if af := testing.AllocsPerRun(20, func() { infer.Forward(h) }); af != 0 {
				t.Errorf("fused inference Forward allocates %.1f objects/op, want 0", af)
			}

			train := buildAGNN(a, w, beta, k).MustCompile(fuse.Options{Train: true, DType: dt})
			train.Forward(h)
			train.Backward(r) // warm up lazily-grown per-worker scratch
			if af := testing.AllocsPerRun(20, func() { train.Forward(h) }); af != 0 {
				t.Errorf("steady-state Forward allocates %.1f objects/op, want 0", af)
			}
			// A Backward reads the values of the Forward just before it.
			if ab := testing.AllocsPerRun(20, func() { train.Forward(h); train.Backward(r) }); ab != 0 {
				t.Errorf("steady-state Forward and Backward allocate %.1f objects/op, want 0", ab)
			}
		})
	}
}

// TestPlanWorkspaceRecycling compiles, releases and recompiles against a
// shared arena: the second plan must reuse the first one's buffers rather
// than growing the workspace.
func TestPlanWorkspaceRecycling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := weightedGraph(40, 160, 13)
	const k = 4
	ws := tensor.NewArena()
	defer fuse.UseArena(ws)()

	p1 := buildVA(a, randParam(rng, "W", k, k), k).MustCompile(fuse.Options{Train: true})
	grown := ws.Bytes()
	p1.Release()

	p2 := buildVA(a, randParam(rng, "W", k, k), k).MustCompile(fuse.Options{Train: true})
	defer p2.Release()
	if ws.Bytes() != grown {
		t.Fatalf("recompile grew the workspace: %d -> %d bytes", grown, ws.Bytes())
	}
}

// TestPlanArenaPeakIsStatsWorkspace: what a plan holds of its arena is what
// PlanStats reports, at every moment — after compile, when it holds its
// parameter copies and no slot (its step has not been laid out, and storage
// acquired before the layout would raise the high-water mark for nothing),
// and after the first step, which laid the step out and gave its slots
// storage, the float64 crossings of a casting plan among them. From then on
// the high-water mark is a property of the plan, not of the run: stepping
// moves neither the live nor the allocated bytes, and a second compile of the
// same graph lands on the same figures. For a model the same holds of the
// step its layers' plans share.
func TestPlanArenaPeakIsStatsWorkspace(t *testing.T) {
	a := weightedGraph(40, 160, 13)
	const k = 4
	h := tensor.RandN(a.Rows, k, 0.5, rand.New(rand.NewSource(9)))
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, train := range []bool{false, true} {
			var compiled, stepped [2]int64
			for run := range compiled {
				ws := tensor.NewArena()
				restore := fuse.UseArena(ws)
				w := randParam(rand.New(rand.NewSource(7)), "W", k, k)
				p := buildVA(a, w, k).MustCompile(fuse.Options{Train: train, DType: dt})
				restore()
				held := func(when string) int64 {
					if want := p.Stats().WorkspaceBytes(); ws.LiveBytes() != want || ws.Bytes() != want {
						t.Errorf("%v train=%v %s: arena holds %d B (%d allocated), PlanStats says %d",
							dt, train, when, ws.LiveBytes(), ws.Bytes(), want)
					}
					return ws.LiveBytes()
				}
				step := func() {
					out := p.Forward(h)
					if train {
						p.Backward(out)
					}
				}
				compiled[run] = held("after compile")
				step()
				stepped[run] = held("after the first step")
				if stepped[run] <= compiled[run] {
					t.Errorf("%v train=%v: the plan held %d B before its first step, %d after it: its slots came before the layout",
						dt, train, compiled[run], stepped[run])
				}
				step()
				if held("after the second step") != stepped[run] {
					t.Errorf("%v train=%v: the second step moved the arena: %d B live, %d after the first",
						dt, train, ws.LiveBytes(), stepped[run])
				}
			}
			if compiled[0] != compiled[1] || stepped[0] != stepped[1] {
				t.Errorf("%v train=%v: workspace differs across runs: %d/%d vs %d/%d B",
					dt, train, compiled[0], stepped[0], compiled[1], stepped[1])
			}
		}
	}

	// A model compiles every layer's plan before any holds a word of the
	// step's slab: the most its arena ever held over the first Forward, and
	// over the first TrainStep, is what the plans of the step report. A
	// layer that took storage of its own first and gave it up when the step
	// was laid out would leave the arena's allocated bytes above that.
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, train := range []bool{false, true} {
			ws := tensor.NewArena()
			restore := fuse.UseArena(ws)
			m, err := gnn.New(gnn.Config{Model: gnn.GAT, Layers: 3, InDim: k, HiddenDim: k, OutDim: 3, SelfLoops: true, Seed: 5, DType: dt}, a)
			if err != nil {
				t.Fatal(err)
			}
			if train {
				m.TrainStep(h, &gnn.CrossEntropyLoss{Labels: make([]int, a.Rows)}, gnn.NewAdam(0.01))
			} else {
				m.Forward(h, false)
			}
			restore()
			var held int64
			for _, l := range m.Layers {
				tp, ip := l.(layerPlans).Plans()
				if train {
					ip = tp
				}
				held += ip.Stats().WorkspaceBytes()
				if n := len(fuse.StepPlans(ip)); n != len(m.Layers) {
					t.Errorf("model %v train=%v: a layer's plan runs in a step of %d plans", dt, train, n)
				}
			}
			if ws.Bytes() != held || ws.LiveBytes() != held {
				t.Errorf("model %v train=%v: the arena allocated %d B and holds %d, the step's plans report %d",
					dt, train, ws.Bytes(), ws.LiveBytes(), held)
			}
			m.ReleasePlans()
			if ws.LiveBytes() != 0 {
				t.Errorf("model %v train=%v: %d B held after ReleasePlans", dt, train, ws.LiveBytes())
			}
		}
	}
}

// TestUnitMaskIsPatternOnly: a weighted mask over a pattern adjacency (Val
// nil) compiles as a pattern-only mask — no multiply per edge in the
// sampling sweep, no mask VJP in the backward list, no copy of A's values at
// float32. Over the pattern's ones-valued twin the mask runs the multiply and
// holds all three, and computes the pattern's bits exactly (x·1 is x); a
// single value of 2 changes only what that edge reaches. Three operands: the
// pattern, the ones-valued twin with the same ops and words as the twin with
// one value 2, and the latter held to the pattern's bits on every output row
// but that edge's, and, with that row's output cotangent zeroed, on the input
// cotangent and every parameter gradient (the doubled score reaches them
// only through products with zero). The golden hashes pin the weighted path
// itself.
func TestUnitMaskIsPatternOnly(t *testing.T) {
	const n, k = 300, 6
	pattern := graph.ErdosRenyi(n, 1500, 31)
	if pattern.Val != nil {
		t.Fatal("ErdosRenyi returned a valued matrix, want a pattern")
	}
	const edge = 700 // the one value the two-valued twin changes
	vals := make([]float64, pattern.NNZ())
	for q := range vals {
		vals[q] = 1
	}
	ones := pattern.WithValues(slices.Clone(vals))
	vals[edge] = 2
	two := pattern.WithValues(vals)
	row := 0
	for int(pattern.RowPtr[row+1]) <= edge {
		row++
	}
	models := map[string]func(a *sparse.CSR, rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef){
		"va": func(a *sparse.CSR, rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef) {
			w := randParam(rng, "W", k, k)
			return buildVA(a, w, k), []fuse.ParamRef{w}
		},
		"agnn": func(a *sparse.CSR, rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef) {
			w, beta := randParam(rng, "W", k, k), randParam(rng, "beta", 1, 1)
			return buildAGNN(a, w, beta, k), []fuse.ParamRef{w, beta}
		},
	}
	for name, build := range models {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, train := range []bool{false, true} {
				for _, noFuse := range []bool{false, true} {
					what := fmt.Sprintf("%s %v train=%v unfused=%v", name, dt, train, noFuse)
					// run executes one step on adjacency a and returns the
					// plan's statistics and every matrix the step produced.
					run := func(a *sparse.CSR) (fuse.PlanStats, []*tensor.Dense) {
						rng := rand.New(rand.NewSource(5))
						g, params := build(a, rng)
						h, gOut := randDense(rng, n, k), randDense(rng, n, k)
						h.ScaleInPlace(0.3) // keep the tanh of VA's unnormalised sums off its float32 plateau
						clear(gOut.Data[row*k : (row+1)*k])
						p := g.MustCompile(fuse.Options{Train: train, DType: dt, NoAttnFuse: noFuse})
						defer p.Release()
						got := []*tensor.Dense{p.Forward(h).Clone()}
						if train {
							got = append(got, p.Backward(gOut).Clone())
							for _, pr := range params {
								got = append(got, pr.Grad)
							}
						}
						return p.Stats(), got
					}
					patStats, patGot := run(pattern)
					onesStats, onesGot := run(ones)
					twoStats, twoGot := run(two)
					if twoStats.BackwardOps != onesStats.BackwardOps || twoStats.WorkspaceWords != onesStats.WorkspaceWords {
						t.Errorf("%s: the ones-valued plan has %d backward ops and %d words, the one with a value of 2 %d and %d: want the same plan",
							what, onesStats.BackwardOps, onesStats.WorkspaceWords, twoStats.BackwardOps, twoStats.WorkspaceWords)
					}
					if train && onesStats.BackwardOps != patStats.BackwardOps+1 {
						t.Errorf("%s: %d backward ops over the pattern, %d over its ones-valued twin: want exactly the mask VJP apart",
							what, patStats.BackwardOps, onesStats.BackwardOps)
					}
					wantCopy := int64(0)
					if dt == tensor.F32 {
						wantCopy = int64(pattern.NNZ())
					}
					if d := onesStats.WorkspaceWords - patStats.WorkspaceWords; d != wantCopy {
						t.Errorf("%s: the valued plan holds %d words more than the pattern's, want %d (A's values at the plan's width)",
							what, d, wantCopy)
					}
					for m := range patGot {
						if i := firstBitDiff(patGot[m].Data, onesGot[m].Data); i >= 0 {
							t.Errorf("%s: matrix %d differs at %d: %v over the pattern, %v over its ones", what, m, i, patGot[m].Data[i], onesGot[m].Data[i])
						}
						u, w := patGot[m].Data, twoGot[m].Data
						if m == 0 { // the forward output: every row but the edge's
							u = append(append([]float64(nil), u[:row*k]...), u[(row+1)*k:]...)
							w = append(append([]float64(nil), w[:row*k]...), w[(row+1)*k:]...)
						}
						if i := firstBitDiff(u, w); i >= 0 {
							t.Errorf("%s: matrix %d differs at %d: %v over the pattern, %v under the multiply", what, m, i, u[i], w[i])
						}
					}
					if firstBitDiff(patGot[0].Data, twoGot[0].Data) < 0 {
						t.Errorf("%s: the weight of 2 did not reach the output: the multiply is gone from the valued plan", what)
					}
				}
			}
		}
	}
}

func TestPlanCompileErrors(t *testing.T) {
	a := weightedGraph(20, 60, 14)
	const k = 3

	t.Run("no output", func(t *testing.T) {
		g := fuse.NewGraph("bad", a)
		g.InputDense("H", a.Rows, k)
		if _, err := g.Compile(fuse.Options{}); err == nil {
			t.Fatal("expected error for graph without output")
		}
	})

	t.Run("semiring is inference-only", func(t *testing.T) {
		g := fuse.NewGraph("sr", a)
		h := g.InputDense("H", a.Rows, k)
		z := g.SpMMSemiring("Z", g.Adj(), h, "max")
		g.SetOutput(z)
		if _, err := g.Compile(fuse.Options{Train: true}); err == nil {
			t.Fatal("expected error for train plan with semiring aggregation")
		}
		if _, err := g.Compile(fuse.Options{}); err != nil {
			t.Fatalf("inference semiring plan should compile: %v", err)
		}
	})

	t.Run("multi-consumer sparse node", func(t *testing.T) {
		g := fuse.NewGraph("mc", a)
		h := g.InputDense("H", a.Rows, k)
		psi := g.Mask("Psi", g.DotScores("HHt", h, h), true)
		z1 := g.SpMM("Z1", psi, h)
		z2 := g.SpMM("Z2", psi, z1)
		g.SetOutput(z2)
		if _, err := g.Compile(fuse.Options{Train: true}); err == nil {
			t.Fatal("expected error for multi-consumer sparse node in train plan")
		}
	})
}

func TestPlanBackwardGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := weightedGraph(20, 60, 16)
	const k = 3
	h := randDense(rng, a.Rows, k)

	t.Run("inference-only", func(t *testing.T) {
		p := buildVA(a, randParam(rng, "W", k, k), k).MustCompile(fuse.Options{})
		p.Forward(h)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for Backward on inference plan")
			}
		}()
		p.Backward(h)
	})

	t.Run("backward before forward", func(t *testing.T) {
		p := buildVA(a, randParam(rng, "W", k, k), k).MustCompile(fuse.Options{Train: true})
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for Backward before Forward")
			}
		}()
		p.Backward(h)
	})
}

// TestGINCombineOnRowBlocks: GIN's agg + (1+ε)·h on a row block reads the
// block's own rows of the full-height input — a row prefix, an ego query's
// message-flow block — and gives the full plan's rows bit for bit; the
// prefix block's training plan accumulates ε̄ and H̄ from its rows alone.
func TestGINCombineOnRowBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	full := weightedGraph(40, 160, 18)
	const k = 3
	eps := randParam(rng, "eps", 1, 1)
	h := randDense(rng, full.Rows, k)
	gin := func(a *sparse.CSR) *fuse.Graph {
		g := fuse.NewGraph("gin", a)
		hn := g.InputDense("H", full.Rows, k)
		g.SetOutput(g.GINCombine("pre", g.SpMM("AH", g.Adj(), hn), hn, g.ParamNode("eps", eps)))
		return g
	}
	want := gin(full).MustCompile(fuse.Options{}).Forward(h).Clone()

	const r = 13
	g := tensor.NewDense(r, k)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	gFull := tensor.NewDense(full.Rows, k)
	gFull.SliceRows(0, r).CopyFrom(g)
	sq := gin(full).MustCompile(fuse.Options{Train: true})
	sq.Forward(h)
	hWant := sq.Backward(gFull).Clone()
	epsWant := eps.Grad.Data[0]
	eps.Grad.Data[0] = 0
	blk := gin(sliceRows(full, 0, r)).MustCompile(fuse.Options{Train: true})
	if got := blk.Forward(h); !slices.Equal(got.Data, want.SliceRows(0, r).Clone().Data) {
		t.Fatal("prefix block's training forward differs from the full plan's rows")
	}
	hGot := blk.Backward(g)
	if d := math.Abs(eps.Grad.Data[0] - epsWant); d > 1e-12 {
		t.Fatalf("prefix block ε̄ = %v, full plan with zero cotangent past row %d %v", eps.Grad.Data[0], r, epsWant)
	}
	if !hGot.ApproxEqual(hWant, 1e-12) {
		t.Fatalf("prefix block H̄ deviates from the full plan's by %g", hGot.MaxAbsDiff(hWant))
	}
}

// sliceRows extracts rows [lo, hi) of s as a standalone CSR block with the
// full column space (what the 1.5D row partitioning hands each rank).
func sliceRows(s *sparse.CSR, lo, hi int) *sparse.CSR {
	coo := sparse.NewCOO(hi-lo, s.Cols, 0)
	for i := lo; i < hi; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			coo.AppendVal(int32(i-lo), s.Col[p], s.Val[p])
		}
	}
	return sparse.FromCOO(coo)
}

// oneRankGrid is the diagonal rank (0, 0) of a 2×2 process grid run on one
// rank: every collective is the identity, and the calls are counted by name.
type oneRankGrid map[string]int

func (g oneRankGrid) Diag() bool                 { return true }
func (g oneRankGrid) Along(fuse.Axis) (int, int) { return 0, 2 }
func (g oneRankGrid) Bcast(ax fuse.Axis, _ []float64) {
	g[fmt.Sprintf("bcast%d", ax)]++
}
func (g oneRankGrid) ReduceToDiag(ax fuse.Axis, _ []float64) {
	g[fmt.Sprintf("reduce%d", ax)]++
}
func (g oneRankGrid) AllreduceRow(_ []float64, max bool) {
	g[fmt.Sprintf("allreduce-max=%t", max)]++
}

// rowGrid is the p×1 grid at p = 1, its collectives counted like
// oneRankGrid's: its row is one rank, so nothing crosses along it.
type rowGrid struct{ oneRankGrid }

func (rowGrid) Along(fuse.Axis) (int, int) { return 0, 1 }

// TestGridLoweringOnOneRank checks the lowering rule of grid.go where it can
// be observed without a network: on one rank of a grid whose rows span ranks
// the lowered GAT and VA plans must issue exactly the collectives the rule
// says (forward, and their mirrors backward), keep VA one fused sweep while
// splitting GAT's at the softmax — and GAT's backward a VJP per op, as the
// exchanged ρ splits the fused attention VJP's row sweep — and on the p×1
// grid, whose row is one rank, keep GAT one fused chain with column
// crossings only; all produce the single-node plan's bits at both widths,
// the fused single-node GAT backward included. The multi-rank equivalences
// live in internal/distgnn and the conformance table.
func TestGridLoweringOnOneRank(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := weightedGraph(40, 200, 31)
	const k = 4
	w, a1, a2 := randParam(rng, "W", k, k), randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1)
	h, gOut := randDense(rng, a.Rows, k), randDense(rng, a.Rows, k)

	gat := func(grid fuse.Grid) *fuse.Graph {
		g := fuse.NewGraph("gat", a)
		g.SetGrid(grid)
		x := g.InputDense("H", a.Rows, k)
		hp := g.MM("Hp", x, g.ParamNode("W", w))
		u := g.MatVecNode("u", hp, g.ParamNode("a1", a1))
		v := g.MatVecNode("v", hp, g.ParamNode("a2", a2))
		c := g.AddScores("C", g.RepRow("u1T", u), g.RepCol("1vT", v))
		psi := g.Softmax("Psi", g.Mask("E", g.LReLUScores("lreluC", c, 0.2), false))
		g.SetOutput(g.Sigma("Hout", g.SpMM("Z", psi, hp), tanhAct))
		return g
	}
	va := func(grid fuse.Grid) *fuse.Graph {
		g := fuse.NewGraph("va", a)
		g.SetGrid(grid)
		x := g.InputDense("H", a.Rows, k)
		psi := g.Mask("Psi", g.DotScores("HHt", x, x), true)
		z := g.MM("Z", g.SpMM("PsiH", psi, x), g.ParamNode("W", w))
		g.SetOutput(g.Sigma("Hout", z, tanhAct))
		return g
	}
	for _, tc := range []struct {
		name      string
		build     func(fuse.Grid) *fuse.Graph
		p1        bool // on the p×1 grid
		attnFused int
		fwd, bwd  oneRankGrid // collectives of one forward / one backward
		bwdOps    []string    // the backward op list (fuse.BackwardOps)
	}{
		// GAT: Hp and v go down the columns, u along the rows, the softmax
		// exchanges max and sum, Z's partials are reduced; backward, Z̄ goes
		// along the rows, ρ is summed, ū comes back along the rows and v̄,
		// H̄p up the columns.
		{"gat", gat, false, 0,
			oneRankGrid{"bcast1": 2, "bcast0": 1, "allreduce-max=true": 1, "allreduce-max=false": 1, "reduce0": 1},
			oneRankGrid{"bcast0": 1, "allreduce-max=false": 1, "reduce0": 1, "reduce1": 2},
			[]string{"Hout.bwd sigma", "Z.bwd reduce-row-to-diag", "Z.part.bwd spmm", "Hp.col.bwd bcast-col",
				"Psi.bwd softmax", "lreluC.bwd lrelu", "1vT.bwd repT", "v.col.bwd bcast-col", "u1T.bwd rep",
				"u.row.bwd bcast-row", "v.bwd matvec", "u.bwd matvec", "Hp.bwd mm"}},
		// VA as gnn.VALayer builds it, (Ψ·H)·W: H crosses once per axis —
		// the column copy the scores read is the one Ψ aggregates — and the
		// projection runs on the diagonal after the reduce; no softmax.
		{"va", va, false, 1,
			oneRankGrid{"bcast0": 1, "bcast1": 1, "reduce0": 1},
			oneRankGrid{"bcast0": 1, "reduce0": 1, "reduce1": 1},
			[]string{"Hout.bwd sigma", "Z.bwd mm", "PsiH.bwd reduce-row-to-diag", "PsiH.part.bwd spmm",
				"Psi.bwd mask", "HHt.bwd mmt", "H.col.bwd bcast-col", "H.row.bwd bcast-row"}},
		// GAT on the p×1 grid: Hp and v go down the column and come back up
		// it; u, the softmax and Z stay on the rank — one fused chain, and
		// the fused attention VJP backward.
		{"gat-p×1", gat, true, 1,
			oneRankGrid{"bcast1": 2},
			oneRankGrid{"reduce1": 2},
			[]string{"Hout.bwd sigma", "Z.bwd fused-attn", "Hp.col.bwd bcast-col", "v.col.bwd bcast-col",
				"v.bwd matvec", "u.bwd matvec", "Hp.bwd mm"}},
	} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, p := range []fuse.ParamRef{w, a1, a2} {
				p.Grad.Zero()
			}
			single := tc.build(nil).MustCompile(fuse.Options{Train: true, DType: dt})
			wantOut := single.Forward(h).Clone()
			wantIn := single.Backward(gOut).Clone()
			wantW := w.Grad.Clone()

			calls := oneRankGrid{}
			var grid fuse.Grid = calls
			if tc.p1 {
				grid = rowGrid{calls}
			}
			plan := tc.build(grid).MustCompile(fuse.Options{Train: true, DType: dt})
			if got := plan.Stats().AttnFused; got != tc.attnFused {
				t.Errorf("%s %s: %d fused attention sweeps on the grid, want %d", tc.name, dt, got, tc.attnFused)
			}
			if got := fuse.BackwardOps(plan); !reflect.DeepEqual(got, tc.bwdOps) {
				t.Errorf("%s %s: backward ops on the grid\n got %q\nwant %q", tc.name, dt, got, tc.bwdOps)
			}
			w.Grad.Zero()
			out := plan.Forward(h)
			if !reflect.DeepEqual(calls, tc.fwd) {
				t.Errorf("%s %s: forward collectives %v, want %v", tc.name, dt, calls, tc.fwd)
			}
			clear(calls)
			in := plan.Backward(gOut)
			if !reflect.DeepEqual(calls, tc.bwd) {
				t.Errorf("%s %s: backward collectives %v, want %v", tc.name, dt, calls, tc.bwd)
			}
			for what, pair := range map[string][2]*tensor.Dense{"output": {out, wantOut}, "input cotangent": {in, wantIn}, "W gradient": {w.Grad, wantW}} {
				if i := firstBitDiff(pair[0].Data, pair[1].Data); i >= 0 {
					t.Errorf("%s %s: %s differs from the single-node plan at word %d", tc.name, dt, what, i)
				}
			}
		}
	}

	// What a grid block cannot be.
	for name, g := range map[string]*fuse.Graph{
		"semiring": func() *fuse.Graph {
			g := fuse.NewGraph("sr", a)
			g.SetGrid(oneRankGrid{})
			g.SetOutput(g.SpMMSemiring("Z", g.Adj(), g.InputDense("H", a.Rows, k), "max"))
			return g
		}(),
	} {
		if _, err := g.Compile(fuse.Options{}); err == nil {
			t.Errorf("%s compiled on a grid", name)
		}
	}
}

// paramSet names the parameters of the test graphs.
type paramSet map[string]fuse.ParamRef

// buildGATHeads is buildGAT with heads attention heads — head h's parameters
// are W, a1, a2 suffixed ".h1" from the second on — whose outputs average as
// a final multi-head layer's do, over a mask that multiplies A's values in
// when weighted.
func buildGATHeads(a *sparse.CSR, ps paramSet, heads, k int, weighted bool) *fuse.Graph {
	g := fuse.NewGraph("gat", a)
	x := g.InputDense("H", a.Rows, k)
	outs := make([]*fuse.Node, heads)
	for h := range outs {
		sfx := ""
		if h > 0 {
			sfx = fmt.Sprintf(".h%d", h)
		}
		hp := g.MM("Hp"+sfx, x, g.ParamNode("W"+sfx, ps["W"+sfx]))
		u := g.MatVecNode("u"+sfx, hp, g.ParamNode("a1"+sfx, ps["a1"+sfx]))
		v := g.MatVecNode("v"+sfx, hp, g.ParamNode("a2"+sfx, ps["a2"+sfx]))
		c := g.AddScores("C"+sfx, g.RepRow("u1T"+sfx, u), g.RepCol("1vT"+sfx, v))
		psi := g.Softmax("Psi"+sfx, g.Mask("E"+sfx, g.LReLUScores("lreluC"+sfx, c, 0.2), weighted))
		outs[h] = g.Sigma("Hout"+sfx, g.SpMM("Z"+sfx, psi, hp), tanhAct)
	}
	g.SetOutput(g.Mean("mean", outs...))
	return g
}

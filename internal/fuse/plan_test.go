package fuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/graph"
	"agnn/internal/kernels"
	"agnn/internal/par"
	"agnn/internal/semiring"
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

func invNorms(h *tensor.Dense) []float64 {
	norms := tensor.RowNorms(h)
	inv := make([]float64, len(norms))
	for i, v := range norms {
		if v != 0 {
			inv[i] = 1 / v
		}
	}
	return inv
}

func TestPlanVAForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := weightedGraph(40, 160, 7)
	const k = 5
	w := randParam(rng, "W", k, k)
	h := randDense(rng, a.Rows, k)

	p := buildVA(a, w, k).MustCompile(fuse.Options{Train: true})
	got := p.Forward(h)

	psi := sparse.SDDMMScaled(a, h, h)
	want := psi.MulDense(tensor.MM(h, w.Value)).Apply(math.Tanh)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("plan VA forward deviates from direct path by %g", got.MaxAbsDiff(want))
	}
}

func TestPlanAGNNForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := weightedGraph(40, 160, 8)
	const k = 4
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	h := randDense(rng, a.Rows, k)

	p := buildAGNN(a, w, beta, k).MustCompile(fuse.Options{Train: true})
	got := p.Forward(h)

	inv := invNorms(h)
	cos := sparse.SDDMMScaled(a, h, h).ScaleRowsCols(inv, inv)
	psi := sparse.RowSoftmax(cos.Scale(beta.Value.Data[0]))
	want := psi.MulDense(tensor.MM(h, w.Value)).Apply(math.Tanh)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("plan AGNN forward deviates from direct path by %g", got.MaxAbsDiff(want))
	}
}

func TestPlanGATForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := weightedGraph(40, 160, 9)
	const k, slope = 4, 0.2
	w := randParam(rng, "W", k, k)
	a1 := randParam(rng, "a1", k, 1)
	a2 := randParam(rng, "a2", k, 1)
	h := randDense(rng, a.Rows, k)

	p := buildGAT(a, w, a1, a2, k, slope).MustCompile(fuse.Options{Train: true})
	got := p.Forward(h)

	hp := tensor.MM(h, w.Value)
	u := tensor.MatVec(hp, a1.Value.Data)
	v := tensor.MatVec(hp, a2.Value.Data)
	psi := kernels.FusedSoftmaxScores(a, kernels.GATEdgeScore(u, v, slope))
	want := psi.MulDense(hp).Apply(math.Tanh)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("plan GAT forward deviates from direct path by %g", got.MaxAbsDiff(want))
	}
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
	hbar := p.Backward(r)

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
			if ab := testing.AllocsPerRun(20, func() { train.Backward(r) }); ab != 0 {
				t.Errorf("steady-state Backward allocates %.1f objects/op, want 0", ab)
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

	p1 := buildVA(a, randParam(rng, "W", k, k), k).MustCompile(fuse.Options{Train: true, Workspace: ws})
	grown := ws.Bytes()
	p1.Release()

	buildVA(a, randParam(rng, "W", k, k), k).MustCompile(fuse.Options{Train: true, Workspace: ws})
	if ws.Bytes() != grown {
		t.Fatalf("recompile grew the workspace: %d -> %d bytes", grown, ws.Bytes())
	}
}

// TestPlanArenaPeakIsStatsWorkspace: what a plan holds of its arena is what
// PlanStats reports, at every moment — after compile, and after the first
// step, when a float32 plan handed float64 matrices has acquired the buffers
// it converts them through (a float64 plan acquires nothing). From then on
// the high-water mark is a property of the plan, not of the run: stepping
// moves neither the live nor the allocated bytes, and a second compile of the
// same graph lands on the same figures.
func TestPlanArenaPeakIsStatsWorkspace(t *testing.T) {
	a := weightedGraph(40, 160, 13)
	const k = 4
	h := tensor.RandN(a.Rows, k, 0.5, rand.New(rand.NewSource(9)))
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, train := range []bool{false, true} {
			var compiled, stepped [2]int64
			for run := range compiled {
				ws := tensor.NewArena()
				w := randParam(rand.New(rand.NewSource(7)), "W", k, k)
				p := buildVA(a, w, k).MustCompile(fuse.Options{Train: train, DType: dt, Workspace: ws})
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
				if dt == tensor.F64 && stepped[run] != compiled[run] {
					t.Errorf("%v train=%v: the first step acquired %d B", dt, train, stepped[run]-compiled[run])
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
}

// TestUnitMaskIsPatternOnly: a weighted mask over an adjacency whose values
// are all exactly 1 compiles as a pattern-only mask — no multiply per edge in
// the sampling sweep, no mask VJP in the backward list, no copy of A's values
// at float32 — and a single value other than 1 brings all three back. What
// the unit plan computes is to the bit what the weighted one does: held
// against the same pattern with one value set to 2, on every output row but
// that edge's, and, with that row's output cotangent zeroed, on the input
// cotangent and every parameter gradient (the doubled score reaches them only
// through products with zero). The golden hashes pin the weighted path itself.
func TestUnitMaskIsPatternOnly(t *testing.T) {
	const n, k = 300, 6
	unit := graph.ErdosRenyi(n, 1500, 31)
	const edge = 700 // the one value the weighted twin changes
	vals := append([]float64(nil), unit.Val...)
	vals[edge] = 2
	two := unit.WithValues(vals)
	row := 0
	for int(unit.RowPtr[row+1]) <= edge {
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
					unitStats, unitGot := run(unit)
					twoStats, twoGot := run(two)
					if train && twoStats.BackwardOps != unitStats.BackwardOps+1 {
						t.Errorf("%s: %d backward ops with unit weights, %d with one weight of 2: want exactly the mask VJP apart",
							what, unitStats.BackwardOps, twoStats.BackwardOps)
					}
					wantCopy := int64(0)
					if dt == tensor.F32 {
						wantCopy = int64(unit.NNZ())
					}
					if d := twoStats.WorkspaceWords - unitStats.WorkspaceWords; d != wantCopy {
						t.Errorf("%s: the weighted plan holds %d words more than the unit one, want %d (A's values at the plan's width)",
							what, d, wantCopy)
					}
					for m := range unitGot {
						u, w := unitGot[m].Data, twoGot[m].Data
						if m == 0 { // the forward output: every row but the edge's
							u = append(append([]float64(nil), u[:row*k]...), u[(row+1)*k:]...)
							w = append(append([]float64(nil), w[:row*k]...), w[(row+1)*k:]...)
						}
						if i := firstBitDiff(u, w); i >= 0 {
							t.Errorf("%s: matrix %d differs at %d: %v with unit weights, %v under the multiply", what, m, i, u[i], w[i])
						}
					}
					if firstBitDiff(unitGot[0].Data, twoGot[0].Data) < 0 {
						t.Errorf("%s: the weight of 2 did not reach the output: the multiply is gone from the weighted plan too", what)
					}
				}
			}
		}
	}
}

func TestPlanCompileErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := weightedGraph(20, 60, 14)
	const k = 3

	t.Run("no output", func(t *testing.T) {
		g := fuse.NewGraph("bad", a)
		g.InputDense("H", a.Rows, k)
		if _, err := g.Compile(fuse.Options{}); err == nil {
			t.Fatal("expected error for graph without output")
		}
	})

	t.Run("row offset is inference-only", func(t *testing.T) {
		g := buildVA(a, randParam(rng, "W", k, k), k)
		g.SetRowOffset(4)
		if _, err := g.Compile(fuse.Options{Train: true}); err == nil {
			t.Fatal("expected error for train plan with row offset")
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

// semiringOracle is Section 4.3's generalized product through
// sparse.SpMMSemiring over the matching internal/semiring instance — what
// the spmm-max/min/mean plan ops are pinned to.
func semiringOracle(a *sparse.CSR, h *tensor.Dense, kind string) *tensor.Dense {
	unit := func(float64) float64 { return 0 }
	switch kind {
	case "max":
		return tensor.NewDenseFrom(a.Rows, h.Cols, sparse.SpMMSemiring(a, h.Data, h.Cols, semiring.TropicalMax(), unit))
	case "min":
		return tensor.NewDenseFrom(a.Rows, h.Cols, sparse.SpMMSemiring(a, h.Data, h.Cols, semiring.TropicalMin(), unit))
	}
	lifted := make([]semiring.Pair, len(h.Data))
	for i, v := range h.Data {
		lifted[i] = semiring.LiftFeature(v)
	}
	out := tensor.NewDense(a.Rows, h.Cols)
	for i, p := range sparse.SpMMSemiring(a, lifted, h.Cols, semiring.Average(), semiring.LiftEdge) {
		out.Data[i] = p.V
	}
	return out
}

// TestPlanSemiringForwardMatchesDirect: the semiring ⊕ ops equal the generic
// semiring kernel bit for bit at float64 — signed zeros, NaN, ±Inf, empty
// rows and zero-weight edges included — and run at float32.
func TestPlanSemiringForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := weightedGraph(30, 90, 15)
	a.Val[0], a.Val[1] = 0, 0 // a zero total weight resets the running mean
	const k = 4
	h := randDense(rng, a.Rows, k)
	negZero := math.Copysign(0, -1)
	copy(h.Data, []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), negZero})
	for _, kind := range []string{"max", "min", "mean"} {
		build := func() *fuse.Graph {
			g := fuse.NewGraph("sr-"+kind, a)
			g.SetOutput(g.SpMMSemiring("Z", g.Adj(), g.InputDense("H", a.Rows, k), kind))
			return g
		}
		got, want := build().MustCompile(fuse.Options{}).Forward(h), semiringOracle(a, h, kind)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("semiring %s: entry %d is %v, the generic kernel has %v", kind, i, got.Data[i], want.Data[i])
			}
		}
		got32 := build().MustCompile(fuse.Options{DType: tensor.F32}).Forward(h)
		for i, w := range want.Data {
			if g := got32.Data[i]; g != w && !(math.IsNaN(g) && math.IsNaN(w)) && math.Abs(g-w) > 1e-5*(1+math.Abs(w)) {
				t.Fatalf("semiring %s at f32: entry %d is %v, want %v", kind, i, g, w)
			}
		}
	}
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

// TestPlanRowOffsetMatchesFullPlan runs a row-block inference plan per
// partition and checks the stacked result against the single full-graph
// plan — the RowEngine execution shape.
func TestPlanRowOffsetMatchesFullPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := weightedGraph(40, 160, 17)
	const k = 4
	w := randParam(rng, "W", k, k)
	a1 := randParam(rng, "a1", k, 1)
	a2 := randParam(rng, "a2", k, 1)
	h := randDense(rng, full.Rows, k)

	want := buildGAT(full, w, a1, a2, k, 0.2).MustCompile(fuse.Options{}).Forward(h)

	got := tensor.NewDense(full.Rows, k)
	for _, cut := range [][2]int{{0, 13}, {13, 28}, {28, 40}} {
		lo, hi := cut[0], cut[1]
		rows := sliceRows(full, lo, hi)
		g := fuse.NewGraph("gat-rows", rows)
		g.SetRowOffset(lo)
		hn := g.InputDense("H", full.Rows, k)
		wn := g.ParamNode("W", w)
		a1n := g.ParamNode("a1", a1)
		a2n := g.ParamNode("a2", a2)
		hp := g.MM("Hp", hn, wn)
		u := g.MatVecNode("u", hp, a1n)
		v := g.MatVecNode("v", hp, a2n)
		c := g.AddScores("C", g.RepRow("u1T", u), g.RepCol("1vT", v))
		e := g.Mask("E", g.LReLUScores("lreluC", c, 0.2), false)
		psi := g.Softmax("Psi", e)
		z := g.SpMM("Z", psi, hp)
		g.SetOutput(g.Sigma("Hout", z, tanhAct))
		out := g.MustCompile(fuse.Options{}).Forward(h)
		got.SliceRows(lo, hi).CopyFrom(out)
	}
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("row-offset plans deviate from full plan by %g", got.MaxAbsDiff(want))
	}
}

// TestGINCombineOnRowBlocks: GIN's agg + (1+ε)·h on a row block reads the
// block's own rows of the full-height input — at a row offset (the row
// engine) and as a row prefix (an ego query's message-flow block) — and
// gives the full plan's rows bit for bit; the prefix block's training plan
// accumulates ε̄ and H̄ from its rows alone.
func TestGINCombineOnRowBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	full := weightedGraph(40, 160, 18)
	const k = 3
	eps := randParam(rng, "eps", 1, 1)
	h := randDense(rng, full.Rows, k)
	gin := func(a *sparse.CSR, off int) *fuse.Graph {
		g := fuse.NewGraph("gin", a)
		g.SetRowOffset(off)
		hn := g.InputDense("H", full.Rows, k)
		g.SetOutput(g.GINCombine("pre", g.SpMM("AH", g.Adj(), hn), hn, g.ParamNode("eps", eps)))
		return g
	}
	want := gin(full, 0).MustCompile(fuse.Options{}).Forward(h).Clone()
	for _, cut := range [][2]int{{0, 13}, {13, 28}, {28, 40}} {
		lo, hi := cut[0], cut[1]
		got := gin(sliceRows(full, lo, hi), lo).MustCompile(fuse.Options{}).Forward(h)
		for i := lo; i < hi; i++ {
			if !slices.Equal(got.Row(i-lo), want.Row(i)) {
				t.Fatalf("rows [%d,%d) at offset: row %d = %v, full plan %v", lo, hi, i, got.Row(i-lo), want.Row(i))
			}
		}
	}

	const r = 13
	g := tensor.NewDense(r, k)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	gFull := tensor.NewDense(full.Rows, k)
	gFull.SliceRows(0, r).CopyFrom(g)
	sq := gin(full, 0).MustCompile(fuse.Options{Train: true})
	sq.Forward(h)
	hWant := sq.Backward(gFull).Clone()
	epsWant := eps.Grad.Data[0]
	eps.Grad.Data[0] = 0
	blk := gin(sliceRows(full, 0, r), 0).MustCompile(fuse.Options{Train: true})
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

// oneRankGrid is a 1×1 process grid: every collective is the identity, and
// the calls are counted by name.
type oneRankGrid map[string]int

func (g oneRankGrid) Diag() bool { return true }
func (g oneRankGrid) Bcast(ax fuse.Axis, _ []float64) {
	g[fmt.Sprintf("bcast%d", ax)]++
}
func (g oneRankGrid) ReduceToDiag(ax fuse.Axis, _ []float64) {
	g[fmt.Sprintf("reduce%d", ax)]++
}
func (g oneRankGrid) AllreduceRow(_ []float64, max bool) {
	g[fmt.Sprintf("allreduce-max=%t", max)]++
}

// TestGridLoweringOnOneRank checks the lowering rule of grid.go where it can
// be observed without a network: on a 1×1 grid the lowered GAT and VA plans
// must issue exactly the collectives the rule says (forward, and their
// mirrors backward), keep VA one fused sweep while splitting GAT's at the
// softmax, and produce the single-node plan's bits at both widths. The
// multi-rank equivalences live in internal/distgnn.
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
		attnFused int
		fwd, bwd  oneRankGrid // collectives of one forward / one backward
	}{
		// GAT: Hp and v go down the columns, u along the rows, the softmax
		// exchanges max and sum, Z's partials are reduced; backward, Z̄ goes
		// along the rows, ρ is summed, ū comes back along the rows and v̄,
		// H̄p up the columns.
		{"gat", gat, 0,
			oneRankGrid{"bcast1": 2, "bcast0": 1, "allreduce-max=true": 1, "allreduce-max=false": 1, "reduce0": 1},
			oneRankGrid{"bcast0": 1, "allreduce-max=false": 1, "reduce0": 1, "reduce1": 2}},
		// VA as gnn.VALayer builds it, (Ψ·H)·W: H crosses once per axis —
		// the column copy the scores read is the one Ψ aggregates — and the
		// projection runs on the diagonal after the reduce; no softmax.
		{"va", va, 1,
			oneRankGrid{"bcast0": 1, "bcast1": 1, "reduce0": 1},
			oneRankGrid{"bcast0": 1, "reduce0": 1, "reduce1": 1}},
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
			plan := tc.build(calls).MustCompile(fuse.Options{Train: true, DType: dt})
			if got := plan.Stats().AttnFused; got != tc.attnFused {
				t.Errorf("%s %s: %d fused attention sweeps on the grid, want %d", tc.name, dt, got, tc.attnFused)
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
			if _, err := plan.Partition([]fuse.RowRange{{Lo: 0, Hi: a.Rows}}); err == nil {
				t.Errorf("%s %s: a plan with collectives partitioned", tc.name, dt)
			}
		}
	}

	// What a grid block cannot be.
	for name, g := range map[string]*fuse.Graph{
		"row offset": func() *fuse.Graph { g := va(oneRankGrid{}); g.SetRowOffset(3); return g }(),
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

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
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The conformance table: every layer kind the program builds, run as a
// compiled plan in inference and — where the layer trains — in training,
// with attention fused and under NoAttnFuse, against the dense evaluator of
// the same DAG (dense_test.go). A training cell compares the output, the
// input cotangent and every parameter gradient. Every float64 cell holds one
// relative band; a tropical ⊕ folds exactly as the evaluator does and is
// compared bit for bit.

// band is the largest tensor.Dense.MaxRelDiff a cell may show against the
// evaluator: its sums run in another order, over n terms where the plan's run
// over a row's non-zeros.
const band = 1e-12

// conformKind is one row of the table: a layer built on adjacency a over
// input width k.
type conformKind struct {
	name  string
	layer func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer
	// A semiring ⊕ is inference-only; an empty row of its output holds ⊕'s
	// identity, empty, exactly. A tropical one (exact) is compared bitwise,
	// at float64 and float32, over an input holding ±0, NaN and ±Inf.
	semiring, exact bool
	empty           float64
}

// gaussianPsi is the custom Ψ of examples/custom_model: distance-decayed
// attention sm(A ⊙ γ·‖h_i − h_j‖²) with a learnable bandwidth γ.
func gaussianPsi() gnn.Psi {
	gamma := gnn.NewScalarParam("gamma", -1)
	return gnn.CustomPsi("gaussian", func(g *fuse.Graph, h *fuse.Node) *fuse.Node {
		d2 := g.SqDistScores("D2", h, h)
		return g.Softmax("Psi", g.Mask("S", g.ScaleScores("gammaD2", d2, gamma.Node(g)), false))
	}, gamma)
}

func semiringKind(name string, agg gnn.Agg, exact bool, empty float64) conformKind {
	return conformKind{name: name, semiring: true, exact: exact, empty: empty,
		layer: func(a *sparse.CSR, _ int, _ *rand.Rand) gnn.DAGLayer {
			return gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gnn.AdjacencyPsi(), Agg: agg})
		}}
}

func conformKinds() []conformKind {
	const out, slope = 3, 0.2
	return []conformKind{
		{name: "va", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewVALayer(a, k, out, gnn.Tanh(), rng)
		}},
		{name: "agnn", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewAGNNLayer(a, k, out, gnn.Tanh(), rng)
		}},
		{name: "gat", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewGATLayer(a, k, out, gnn.Tanh(), slope, rng)
		}},
		{name: "gcn", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewGCNLayer(a, k, out, gnn.ReLU(), rng)
		}},
		{name: "gin", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewGINLayer(a, k, 5, out, gnn.Tanh(), rng)
		}},
		{name: "sgc", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewSGCLayer(a, 2, k, out, gnn.Tanh(), rng)
		}},
		{name: "gat-2head-concat", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewMultiHeadGATLayer(a, k, out, 2, true, gnn.Tanh(), slope, rng)
		}},
		{name: "gat-2head-mean", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewMultiHeadGATLayer(a, k, out, 2, false, gnn.Tanh(), slope, rng)
		}},
		{name: "generic-gaussian", layer: func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			phi := gnn.MLPPhi(gnn.Tanh(), tensor.GlorotInit(k, 4, rng), tensor.GlorotInit(4, out, rng))
			return gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gaussianPsi(), Phi: phi, Act: gnn.Tanh()})
		}},
		semiringKind("semiring-max", gnn.MaxAgg(), true, math.Inf(-1)),
		semiringKind("semiring-min", gnn.MinAgg(), true, math.Inf(1)),
		semiringKind("semiring-mean", gnn.MeanAgg(), false, 0),
	}
}

// conformGraph is a weighted adjacency with empty rows, columns no row
// reads, no self loops, and two edges of weight 0 in one row (a zero total
// weight resets the running mean of the averaging semiring).
func conformGraph(n int, seed int64) *sparse.CSR {
	a := withEmptyRows(weightedGraph(n, 5*n, seed))
	vals := slices.Clone(a.Val)
	vals[0], vals[1] = 0, 0
	return a.WithValues(vals)
}

// layerGraph is the DAG a layer builds for itself over adjacency a, reading
// an input of width k.
func layerGraph(l gnn.DAGLayer, a *sparse.CSR, k int) *fuse.Graph {
	g := fuse.NewGraph(l.Name(), a)
	l.DAG(g, g.InputDense("H", a.Rows, k))
	return g
}

// conformInput is the cell's input: Gaussian, with ±0, NaN and ±Inf in the
// first row and a half for a tropical ⊕.
func conformInput(kind conformKind, rows, k int, rng *rand.Rand) *tensor.Dense {
	h := randDense(rng, rows, k)
	if kind.exact {
		negZero := math.Copysign(0, -1)
		copy(h.Data, []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), negZero})
	}
	return h
}

// cellCheck compares what a plan computed with what the evaluator did and
// reports the largest relative difference it saw.
type cellCheck struct {
	t     *testing.T
	exact bool
	worst float64
}

func (c *cellCheck) check(what string, got, want *tensor.Dense) {
	c.t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		c.t.Fatalf("%s: %d×%d, the evaluator's is %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if c.exact {
		if i := firstBitDiff(got.Data, want.Data); i >= 0 {
			c.t.Errorf("%s: entry %d is %v, the evaluator's %v", what, i, got.Data[i], want.Data[i])
		}
		return
	}
	d := got.MaxRelDiff(want)
	if !(d <= band) {
		c.t.Errorf("%s: deviates from the evaluator by %g of its largest entry, band %g", what, d, band)
	}
	c.worst = max(c.worst, d)
}

func TestConformanceTable(t *testing.T) {
	const k = 4
	a := conformGraph(40, 61)
	worst := 0.0
	for _, kind := range conformKinds() {
		for _, train := range []bool{false, true} {
			if train && kind.semiring {
				continue
			}
			for _, noFuse := range []bool{false, true} {
				name := fmt.Sprintf("%s/train=%v/unfused=%v", kind.name, train, noFuse)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(63))
					g := layerGraph(kind.layer(a, k, rng), a, k)
					h := conformInput(kind, a.Rows, k, rng)
					var gz *tensor.Dense
					if train {
						gz = randDense(rng, a.Rows, g.OutputCols())
					}
					want := fuse.EvalDense(g, h, gz)
					p := g.MustCompile(fuse.Options{Train: train, NoAttnFuse: noFuse})
					defer p.Release()
					c := &cellCheck{t: t, exact: kind.exact}
					got := p.Forward(h)
					c.check("output", got, want.Out)
					if kind.exact {
						// Rounding is monotone, so at float32 a tropical ⊕ is the
						// rounding of the evaluator's, bit for bit.
						p32 := g.MustCompile(fuse.Options{DType: tensor.F32, NoAttnFuse: noFuse})
						defer p32.Release()
						c.check("float32 output", p32.Forward(h), want.Out.Apply(func(v float64) float64 { return float64(float32(v)) }))
					}
					if kind.semiring {
						for i := range a.Rows {
							if a.RowNNZ(i) > 0 {
								continue
							}
							for _, v := range got.Row(i) {
								if v != kind.empty {
									t.Errorf("empty row %d holds %v, want %v", i, v, kind.empty)
								}
							}
						}
					}
					if train {
						for _, pr := range want.Params {
							pr.Grad.Zero()
						}
						c.check("input cotangent", p.Backward(gz), want.DH)
						for i, pr := range want.Params {
							c.check("gradient of "+pr.Name, pr.Grad, want.Grads[i])
						}
					}
					worst = max(worst, c.worst)
				})
			}
		}
	}

	// A model: its layers' plans run in one step and hand each other their
	// buffers (Model.Forward/Backward), against the evaluator layer by layer.
	t.Run("model/gat-2layer", func(t *testing.T) {
		cfg := gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: 5, OutDim: 3, SelfLoops: true, Seed: 64}
		m, err := gnn.New(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		defer m.ReleasePlans()
		pre := cfg.Preprocess(a)
		h := randDense(rand.New(rand.NewSource(65)), a.Rows, k)
		gz := randDense(rand.New(rand.NewSource(66)), a.Rows, cfg.OutDim)
		var graphs []*fuse.Graph
		xs := []*tensor.Dense{h}
		for _, l := range m.Layers {
			x := xs[len(xs)-1]
			graphs = append(graphs, layerGraph(l.(gnn.DAGLayer), pre, x.Cols))
			xs = append(xs, fuse.EvalDense(graphs[len(graphs)-1], x, nil).Out)
		}
		c := &cellCheck{t: t}
		c.check("inference output", m.Forward(h, false), xs[len(xs)-1])
		c.check("training output", m.Forward(h, true), xs[len(xs)-1])
		m.ZeroGrad()
		dh := m.Backward(gz)
		for i := len(graphs) - 1; i >= 0; i-- {
			want := fuse.EvalDense(graphs[i], xs[i], gz)
			for q, pr := range want.Params {
				c.check(fmt.Sprintf("layer %d gradient of %s", i, pr.Name), pr.Grad, want.Grads[q])
			}
			gz = want.DH
		}
		c.check("input cotangent", dh, gz)
		worst = max(worst, c.worst)
	})
	t.Logf("largest relative difference of a float64 cell: %.3g (band %g)", worst, band)
}

// TestEvaluatorVJPsFiniteDifference checks every VJP of the dense evaluator
// once against central differences of its own forward: the input cotangent
// and every parameter gradient of each trainable kind of the table, whose
// graphs together hold every op the evaluator has a VJP for.
func TestEvaluatorVJPsFiniteDifference(t *testing.T) {
	const k, eps, tol = 3, 1e-6, 1e-6
	a := conformGraph(12, 71)
	seen := map[string]bool{}
	for _, kind := range conformKinds() {
		if kind.semiring {
			continue
		}
		rng := rand.New(rand.NewSource(72))
		g := layerGraph(kind.layer(a, k, rng), a, k)
		for _, n := range g.DAG().Nodes() {
			seen[n.Op] = true
		}
		h := randDense(rng, a.Rows, k)
		r := randDense(rng, a.Rows, g.OutputCols())
		got := fuse.EvalDense(g, h, r)
		loss := func() float64 {
			s := 0.0
			for i, v := range fuse.EvalDense(g, h, nil).Out.Data {
				s += v * r.Data[i]
			}
			return s
		}
		check := func(what string, x, grad *tensor.Dense) {
			for i := range x.Data {
				orig := x.Data[i]
				x.Data[i] = orig + eps
				up := loss()
				x.Data[i] = orig - eps
				down := loss()
				x.Data[i] = orig
				num := (up - down) / (2 * eps)
				if math.Abs(num-grad.Data[i]) > tol*(1+math.Abs(num)) {
					t.Errorf("%s: %s[%d] is %.10g by its VJPs, %.10g by central differences", kind.name, what, i, grad.Data[i], num)
				}
			}
		}
		check("H", h, got.DH)
		for i, p := range got.Params {
			check(p.Name, p.Value, got.Grads[i])
		}
	}
	for _, op := range fuse.DenseVJPOps() {
		if !seen[op] {
			t.Errorf("no graph of the table holds op %q: its VJP goes unchecked", op)
		}
	}
}

// FuzzGenericPlanVsDirect cross-checks the compiled plans of arbitrary
// Ψ/⊕/Φ assemblies — inference at both widths, training where the assembly
// has a backward — against the dense evaluator of the layer's DAG.
func FuzzGenericPlanVsDirect(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), false, uint8(0))
	f.Add(uint8(1), uint8(0), uint8(1), true, uint8(1))
	f.Add(uint8(2), uint8(1), uint8(2), false, uint8(2))
	f.Add(uint8(2), uint8(3), uint8(0), false, uint8(1))
	f.Add(uint8(3), uint8(2), uint8(2), true, uint8(1))
	f.Fuzz(func(t *testing.T, psiSel, aggSel, phiSel uint8, phiFirst bool, actSel uint8) {
		// The custom ⊕ is the built-in sum's node; the custom Φ is tanh(X·W).
		customSum := gnn.CustomAgg("custom-sum", func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node { return g.SpMM("Z", psi, x) })
		psis := []gnn.Psi{gnn.AdjacencyPsi(), gnn.DotPsi(), gnn.SoftmaxDotPsi(), gaussianPsi()}
		aggs := []gnn.Agg{gnn.SumAgg(), gnn.MaxAgg(), gnn.MinAgg(), gnn.MeanAgg(), customSum}
		acts := []gnn.Activation{gnn.Identity(), gnn.Tanh(), gnn.ReLU()}
		rng := rand.New(rand.NewSource(900))
		a := graph.ErdosRenyi(10, 30, 901)
		h := tensor.RandN(10, 3, 1, rng)
		wc := gnn.NewParam("Wc", tensor.GlorotInit(3, 2, rng))
		phis := []gnn.Phi{
			{}, // identity
			gnn.LinearPhi(tensor.GlorotInit(3, 2, rng)),
			gnn.MLPPhi(gnn.Tanh(), tensor.GlorotInit(3, 4, rng), tensor.GlorotInit(4, 2, rng)),
			gnn.CustomPhi("tanh-linear", func(g *fuse.Graph, x *fuse.Node) *fuse.Node {
				return g.Sigma("cphiAct", g.MM("cphi", x, wc.Node(g)), tanhAct)
			}, wc),
		}
		gen := gnn.NewGenericLayer(a, gnn.GenericLayer{
			Psi:      psis[int(psiSel)%len(psis)],
			Agg:      aggs[int(aggSel)%len(aggs)],
			Phi:      phis[int(phiSel)%len(phis)],
			Act:      acts[int(actSel)%len(acts)],
			PhiFirst: phiFirst,
		})
		want := fuse.EvalDense(layerGraph(gen, a, h.Cols), h, nil).Out
		check := func(mode string, got *tensor.Dense, tol float64) {
			if !got.ApproxEqual(want, tol) {
				t.Fatalf("%s: plan deviates from the evaluator by %g (psi=%q agg=%q phi=%q first=%v)",
					mode, got.MaxAbsDiff(want), gen.Psi.Kind, gen.Agg.Kind, gen.Phi.Kind, phiFirst)
			}
		}
		check("inference", gen.Forward(h, false), 1e-10)
		if gen.CanTrain() == nil { // a semiring ⊕ has no training plan
			check("training", gen.Forward(h, true), 1e-10)
		}
		// At float32 every assembly runs; the comparison skips the one that is
		// ill-conditioned at any width — an average under signed weights
		// divides by a sum that may cancel.
		gen.DType = tensor.F32
		if got := gen.Forward(h, false); gen.Psi.Kind != "dot" || gen.Agg.Kind != "mean" {
			check("f32 inference", got, 1e-4)
		}
	})
}

package fuse_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	gonet "net"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"agnn/internal/dist"
	distnet "agnn/internal/dist/net"
	"agnn/internal/distgnn"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/local"
	"agnn/internal/par"
	"agnn/internal/serving"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The conformance table. Its columns are the program's engines, each held to
// a reference under the tolerance policy its row declares:
//   - plan: every layer kind the program builds, compiled in inference and —
//     where the layer trains — in training, with attention fused and under
//     NoAttnFuse, against the dense evaluator of the same DAG (dense_test.go);
//     at float64 and float32, at one worker and at three, over a graph axis
//     of weighted, empty-row and underflowing patterns. NoAttnFuse and the
//     training forward are held to the fused inference plan bit for bit.
//   - model: gnn.Model over the engine axis's models, inference against the
//     training forward, float32 against float64, local.Mirror against it,
//     and k SGD steps — the reference of every engine after it.
//   - grid (NewGlobalEngine, the √p×√p grid) at p = 1, 4, 9, row (NewRowGrid,
//     the p×1 grid) and local (LocalEngine, inference; it trains only by
//     mini-batches) at p = 1, 3, 4, over a 31-vertex graph every grid but
//     1×1 pads and every 1D partition but p = 1 splits unevenly.
//   - tcp: the grid at p = 4 over a dialled loopback world against its
//     channel twin, counters included.
//   - ego: serving's answers against the full-graph forward.
//
// An all-masked loss is a row of the training cells: loss 0, every gradient
// 0, parameters unchanged. A cell the program refuses is a row of refusals,
// holding the error text docs/ARCHITECTURE.md §4 lists for it.

// band is the largest tensor.Dense.MaxRelDiff a float64 plan may show against
// the evaluator: its sums run in another order, over n terms where the plan's
// run over a row's non-zeros.
const band = 1e-12

// result is what one engine computed: the output of a forward, the losses of
// training steps, what a backward or training left (named: the input
// cotangent, every parameter and gradient, the output after training), the
// plan's fused attention chains and every rank's counters.
type result struct {
	out, losses *tensor.Dense
	after       map[string]*tensor.Dense
	attn        int
	comm        []dist.Counters
}

// policy is a cell's tolerance: the largest MaxRelDiff against the reference
// of the output, the losses and what training left; 0 is bit for bit.
type policy struct{ out, loss, after float64 }

var bitwise = policy{}

// check holds got to want under the policy — everything want holds, and the
// counters where both have them — and returns the largest relative
// difference a band allowed.
func (pol policy) check(t *testing.T, got, want result) float64 {
	t.Helper()
	worst := max(near(t, "output", pol.out, got.out, want.out), near(t, "losses", pol.loss, got.losses, want.losses))
	for what, w := range want.after {
		worst = max(worst, near(t, what, pol.after, got.after[what], w))
	}
	if got.comm != nil && want.comm != nil && !slices.Equal(got.comm, want.comm) {
		t.Errorf("counters %v, the reference's %v", got.comm, want.comm)
	}
	return worst
}

// near holds got to want within band, bit for bit where band is 0.
func near(t *testing.T, what string, band float64, got, want *tensor.Dense) float64 {
	t.Helper()
	switch {
	case want == nil:
		return 0
	case got == nil || got.Rows != want.Rows || got.Cols != want.Cols:
		t.Errorf("%s: %v, the reference's is %d×%d", what, got, want.Rows, want.Cols)
	case band == 0:
		if i := firstBitDiff(got.Data, want.Data); i >= 0 {
			t.Errorf("%s: word %d is %v, the reference's %v", what, i, got.Data[i], want.Data[i])
		}
	default:
		d := got.MaxRelDiff(want)
		if !(d <= band) {
			t.Errorf("%s: deviates from the reference by %g of its largest entry, band %g", what, d, band)
		}
		return d
	}
	return 0
}

// ----------------------------------------------------------------- plans

// conformKind is a row of the plan column: the DAG of a layer over adjacency
// a and input width k.
type conformKind struct {
	name  string
	graph func(a *sparse.CSR, k int, rng *rand.Rand) *fuse.Graph
	// A semiring ⊕ is inference-only; an empty row of its output holds ⊕'s
	// identity, empty, exactly. A tropical one (exact) is compared bitwise,
	// at float64 and float32, over an input holding ±0, NaN and ±Inf.
	semiring, exact bool
	empty           float64
	attn            bool // the default compile fuses an attention chain
}

// layerKind is the row of a layer built by mk.
func layerKind(name string, attn bool, mk func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer) conformKind {
	return conformKind{name: name, attn: attn, graph: func(a *sparse.CSR, k int, rng *rand.Rand) *fuse.Graph {
		return layerGraph(mk(a, k, rng), a, k)
	}}
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
	k := layerKind(name, false, func(a *sparse.CSR, _ int, _ *rand.Rand) gnn.DAGLayer {
		return gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gnn.AdjacencyPsi(), Agg: agg})
	})
	k.semiring, k.exact, k.empty = true, exact, empty
	return k
}

func conformKinds() []conformKind {
	const out, slope = 3, 0.2
	return []conformKind{
		layerKind("va", true, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewVALayer(a, k, out, gnn.Tanh(), rng)
		}),
		layerKind("agnn", true, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewAGNNLayer(a, k, out, gnn.Tanh(), rng)
		}),
		layerKind("gat", true, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewGATLayer(a, k, out, gnn.Tanh(), slope, rng)
		}),
		layerKind("gcn", false, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewGCNLayer(a, k, out, gnn.ReLU(), rng)
		}),
		layerKind("gin", false, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewGINLayer(a, k, 5, out, gnn.Tanh(), rng)
		}),
		layerKind("sgc", false, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewSGCLayer(a, 2, k, out, gnn.Tanh(), rng)
		}),
		layerKind("gat-2head-concat", true, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewMultiHeadGATLayer(a, k, out, 2, true, gnn.Tanh(), slope, rng)
		}),
		layerKind("gat-2head-mean", true, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			return gnn.NewMultiHeadGATLayer(a, k, out, 2, false, gnn.Tanh(), slope, rng)
		}),
		// GAT's chain under a weighted mask: A's values scale the scores.
		{name: "gat-weighted", attn: true, graph: func(a *sparse.CSR, k int, rng *rand.Rand) *fuse.Graph {
			ps := paramSet{"W": randParam(rng, "W", k, out), "a1": randParam(rng, "a1", out, 1), "a2": randParam(rng, "a2", out, 1)}
			return buildGATHeads(a, ps, 1, k, true)
		}},
		layerKind("generic-gaussian", true, func(a *sparse.CSR, k int, rng *rand.Rand) gnn.DAGLayer {
			phi := gnn.MLPPhi(gnn.Tanh(), tensor.GlorotInit(k, 4, rng), tensor.GlorotInit(4, out, rng))
			return gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gaussianPsi(), Phi: phi, Act: gnn.Tanh()})
		}),
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

// withEmptyRows is a's pattern with every entry of every fifth row and of
// every seventh column dropped: empty rows of S and of Sᵀ, no self-loops.
func withEmptyRows(a *sparse.CSR) *sparse.CSR {
	coo := sparse.NewCOO(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.Col[p]; i%5 != 0 && j%7 != 0 && int(j) != i {
				coo.AppendVal(int32(i), j, a.Val[p])
			}
		}
	}
	return sparse.FromCOO(coo)
}

// spreadWeights is a with every third value scaled by 2000 and every fourth
// other one by −700: under a weighted mask a row's scores then spread by
// hundreds to thousands, so that exp(s − m) underflows on part of most rows —
// at float64 the lanes that take math.Exp's special cases, at float32
// exp32's flush to 0.
func spreadWeights(a *sparse.CSR) *sparse.CSR {
	vals := slices.Clone(a.Val)
	for p := range vals {
		switch {
		case p%3 == 0:
			vals[p] *= 2000
		case p%4 == 0:
			vals[p] *= -700
		}
	}
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

// planRun is what g's plan compiled with opt computes over h and — for a
// training plan — back from the output cotangent gz into the gradients of
// ps.
func planRun(g *fuse.Graph, opt fuse.Options, h, gz *tensor.Dense, ps []fuse.ParamRef) result {
	p := g.MustCompile(opt)
	defer p.Release()
	r := result{out: p.Forward(h).Clone(), attn: p.Stats().AttnFused}
	if opt.Train {
		for _, pr := range ps {
			pr.Grad.Zero()
		}
		r.after = map[string]*tensor.Dense{"input cotangent": p.Backward(gz).Clone()}
		for i, pr := range ps {
			r.after[fmt.Sprintf("gradient %d (%s)", i, pr.Name)] = pr.Grad.Clone()
		}
	}
	return r
}

// evalResult is the evaluator's result in planRun's terms.
func evalResult(e fuse.DenseEval) result {
	r := result{out: e.Out}
	if e.DH != nil {
		r.after = map[string]*tensor.Dense{"input cotangent": e.DH}
		for i, pr := range e.Params {
			r.after[fmt.Sprintf("gradient %d (%s)", i, pr.Name)] = e.Grads[i]
		}
	}
	return r
}

func TestConformanceTable(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)
	conformPlans(t)
	conformModel(t)
	conformEngines(t)
	conformEgo(t)
	conformRefusals(t)
}

// conformPlans: the plan column — the evaluator cells, a two-layer model,
// and the graph axis at both widths and workers 1 and 3.
func conformPlans(t *testing.T) {
	const k = 4
	a := conformGraph(40, 61)
	worst := 0.0
	for _, kind := range conformKinds() {
		for _, train := range []bool{false, true} {
			if train && kind.semiring {
				continue
			}
			for _, noFuse := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/train=%v/unfused=%v", kind.name, train, noFuse), func(t *testing.T) {
					rng := rand.New(rand.NewSource(63))
					g := kind.graph(a, k, rng)
					h := conformInput(kind, a.Rows, k, rng)
					var gz *tensor.Dense
					if train {
						gz = randDense(rng, a.Rows, g.OutputCols())
					}
					want := fuse.EvalDense(g, h, gz)
					tol := policy{out: band, after: band}
					if kind.exact {
						tol = bitwise
					}
					got := planRun(g, fuse.Options{Train: train, NoAttnFuse: noFuse}, h, gz, want.Params)
					worst = max(worst, tol.check(t, got, evalResult(want)))
					if kind.exact {
						// Rounding is monotone, so at float32 a tropical ⊕ is the
						// rounding of the evaluator's, bit for bit.
						rounded := want.Out.Apply(func(v float64) float64 { return float64(float32(v)) })
						bitwise.check(t, planRun(g, fuse.Options{DType: tensor.F32, NoAttnFuse: noFuse}, h, nil, nil), result{out: rounded})
					}
					for i := range a.Rows {
						if kind.semiring && a.RowNNZ(i) == 0 && slices.ContainsFunc(got.out.Row(i), func(v float64) bool { return v != kind.empty }) {
							t.Errorf("empty row %d holds %v, want %v", i, got.out.Row(i), kind.empty)
						}
					}
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
		pre := cfg.Prep().Apply(a)
		h := randDense(rand.New(rand.NewSource(65)), a.Rows, k)
		gz := randDense(rand.New(rand.NewSource(66)), a.Rows, cfg.OutDim)
		var graphs []*fuse.Graph
		xs := []*tensor.Dense{h}
		for _, l := range m.Layers {
			x := xs[len(xs)-1]
			graphs = append(graphs, layerGraph(l.(gnn.DAGLayer), pre, x.Cols))
			xs = append(xs, fuse.EvalDense(graphs[len(graphs)-1], x, nil).Out)
		}
		out := xs[len(xs)-1]
		worst = max(worst, near(t, "inference output", band, m.Forward(h, false), out), near(t, "training output", band, m.Forward(h, true), out))
		m.ZeroGrad()
		dh := m.Backward(gz)
		for i := len(graphs) - 1; i >= 0; i-- {
			want := fuse.EvalDense(graphs[i], xs[i], gz)
			for q, pr := range want.Params {
				worst = max(worst, near(t, fmt.Sprintf("layer %d gradient of %s", i, pr.Name), band, pr.Grad, want.Grads[q]))
			}
			gz = want.DH
		}
		worst = max(worst, near(t, "input cotangent", band, dh, gz))
	})
	t.Logf("largest relative difference of a float64 cell: %.3g (band %g)", worst, band)

	// The graph axis, at both widths and at one worker and three: a weighted
	// pattern above par's inline threshold, its empty rows and columns, its
	// weights spread until exp underflows.
	big := weightedGraph(300, 1500, 97)
	graphs := []struct {
		name string
		a    *sparse.CSR
	}{{"n300", big}, {"empty-rows", withEmptyRows(big)}, {"underflow", spreadWeights(big)}}
	for _, gr := range graphs {
		for _, kind := range conformKinds() {
			if kind.semiring {
				continue
			}
			rng := rand.New(rand.NewSource(96))
			g := kind.graph(gr.a, 5, rng)
			h, gz := randDense(rng, gr.a.Rows, 5), randDense(rng, gr.a.Rows, g.OutputCols())
			want := fuse.EvalDense(g, h, gz)
			for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
				tol := policy{out: band, after: band}
				if dt == tensor.F32 {
					tol = policy{out: 1e-5, after: 1e-3}
				}
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/plan/%s/w%d/%s", dt, gr.name, workers, kind.name), func(t *testing.T) {
						par.SetWorkers(workers)
						infer := planRun(g, fuse.Options{DType: dt}, h, nil, nil)
						train := planRun(g, fuse.Options{DType: dt, Train: true}, h, gz, want.Params)
						tol.check(t, infer, result{out: want.Out})
						tol.check(t, train, evalResult(want))
						near(t, "training forward", 0, train.out, infer.out)
						unfused := planRun(g, fuse.Options{DType: dt, NoAttnFuse: true}, h, nil, nil)
						bitwise.check(t, unfused, infer)
						bitwise.check(t, planRun(g, fuse.Options{DType: dt, Train: true, NoAttnFuse: true}, h, gz, want.Params), train)
						if (infer.attn > 0) != kind.attn || unfused.attn != 0 {
							t.Errorf("%d attention chains fused by default and %d under NoAttnFuse", infer.attn, unfused.attn)
						}
					})
				}
			}
		}
	}
}

// ------------------------------------------------------- model and engines

// setup is a row of the engine axis: a model over the engines' graph, its
// input, and — for a training cell — the labels and mask of its loss.
type setup struct {
	name   string
	cfg    gnn.Config
	a      *sparse.CSR
	h      *tensor.Dense
	labels []int
	mask   []bool
	train  bool
}

// engineSetups is the engine axis at width dt: the four kinds and 3-head GAT,
// three layers each, over a 31-vertex graph — 27 random vertices, an
// isolated one and a three-vertex path.
func engineSetups(dt tensor.DType) []setup {
	er := graph.ErdosRenyi(27, 81, 3)
	coo := sparse.NewCOO(31, 31, er.NNZ()+4)
	for i := range er.Rows {
		for q := er.RowPtr[i]; q < er.RowPtr[i+1]; q++ {
			coo.Append(int32(i), er.Col[q])
		}
	}
	for _, e := range [][2]int32{{28, 29}, {29, 28}, {29, 30}, {30, 29}} {
		coo.Append(e[0], e[1])
	}
	a := sparse.FromCOO(coo)
	h := tensor.NewDense(a.Rows, 5)
	for i := range h.Data {
		h.Data[i] = math.Sin(float64(i)*0.37) * 0.8
	}
	labels := make([]int, a.Rows)
	for i := range labels {
		labels[i] = i % 4
	}
	var ss []setup
	for _, kind := range []gnn.Kind{gnn.VA, gnn.AGNN, gnn.GAT, gnn.GCN, gnn.GAT} {
		cfg := gnn.Config{Model: kind, Layers: 3, InDim: 5, HiddenDim: 6, OutDim: 4,
			Activation: gnn.Tanh(), SelfLoops: true, Seed: 77, DType: dt}
		name := kind.String()
		if len(ss) == 4 {
			cfg.Heads, name = 3, "GAT-3heads"
		}
		ss = append(ss, setup{name: name, cfg: cfg, a: a, h: h, labels: labels})
	}
	return ss
}

// steps is k, the SGD steps of a training cell.
const steps = 4

// train runs steps SGD steps through step and records their losses, then
// what they left: the parameters, the last step's gradients and the output
// forward gives.
func (r *result) train(step func(gnn.Optimizer) float64, params []*gnn.Param, forward func() *tensor.Dense) {
	opt := gnn.NewSGD(0.05, 0)
	r.losses = tensor.NewDense(1, steps)
	for i := range r.losses.Data {
		r.losses.Data[i] = step(opt)
	}
	r.after = map[string]*tensor.Dense{"trained output": forward(),
		"parameters": flat(params, func(p *gnn.Param) *tensor.Dense { return p.Value }),
		"gradients":  flat(params, func(p *gnn.Param) *tensor.Dense { return p.Grad })}
}

// flat lays what of every parameter end to end in one row: a model's
// gradients are compared relative to the largest of them all, for some —
// GAT's a1, which shifts a whole row of scores — are zero up to rounding.
func flat(params []*gnn.Param, what func(*gnn.Param) *tensor.Dense) *tensor.Dense {
	var words []float64
	for _, p := range params {
		words = append(words, what(p).Data...)
	}
	return tensor.NewDenseFrom(1, len(words), words)
}

// engine is a column of the engine axis: on every rank of a world it runs
// the setup, and returns the result on rank 0.
type engine func(c *dist.Comm, s setup) (result, error)

// singleEngine is the single-node model, on one rank.
func singleEngine(_ *dist.Comm, s setup) (result, error) {
	m, err := gnn.New(s.cfg, s.a)
	if err != nil {
		return result{}, err
	}
	defer m.ReleasePlans()
	forward := func() *tensor.Dense { return m.Forward(s.h, false).Clone() }
	r := result{out: forward()}
	if s.train {
		loss := &gnn.CrossEntropyLoss{Labels: s.labels, Mask: s.mask}
		r.train(func(opt gnn.Optimizer) float64 { return m.TrainStep(s.h, loss, opt) }, m.Params(), forward)
	}
	return r, nil
}

// gridEngine runs the setup on the √p×√p grid, rowEngine on the p×1 grid.
func gridEngine(c *dist.Comm, s setup) (result, error) { return onGrid(distgnn.NewGlobalEngine, c, s) }
func rowEngine(c *dist.Comm, s setup) (result, error)  { return onGrid(distgnn.NewRowGrid, c, s) }

func onGrid(newEngine func(*dist.Comm, *sparse.CSR, gnn.Config) (*distgnn.GlobalEngine, error), c *dist.Comm, s setup) (result, error) {
	e, err := newEngine(c, s.a, s.cfg)
	if err != nil {
		return result{}, err
	}
	defer e.Close()
	xd := e.SliceOwnedBlock(s.h)
	forward := func() *tensor.Dense { return e.GatherOutput(e.Forward(xd, false), s.cfg.OutDim) }
	r := result{out: forward()}
	if s.train {
		fwd := e.GatherOutput(e.Forward(xd, true), s.cfg.OutDim)
		r.train(func(opt gnn.Optimizer) float64 { return e.TrainStep(xd, s.labels, s.mask, opt) }, e.Params(), forward)
		r.after["training forward"] = fwd
	}
	return r, nil
}

// localEngine runs the setup's inference on the 1D partition; it trains the
// way the baseline does, by mini-batches (DistDGL), seeded with the owned
// vertices the mask keeps.
func localEngine(c *dist.Comm, s setup) (result, error) {
	e, err := distgnn.NewLocalEngine(c, s.a, s.cfg)
	if err != nil {
		return result{}, err
	}
	h := s.h.SliceRows(e.Lo, e.Hi).Clone()
	forward := func() *tensor.Dense { return e.GatherOutput(e.Forward(h)) }
	r := result{out: forward()}
	if s.train {
		var seeds []int32
		for v := e.Lo; v < e.Hi; v++ {
			if s.mask == nil || s.mask[v] {
				seeds = append(seeds, int32(v))
			}
		}
		r.train(func(opt gnn.Optimizer) float64 { return e.MiniBatchStep(h, s.labels, seeds, opt) }, e.Params(), forward)
	}
	return r, nil
}

// onRanks runs the engine on a p-rank in-process world.
func onRanks(p int, s setup, run engine) (result, error) {
	var r0 result
	cs, errs, err := dist.TryRun(p, dist.Options{}, func(c *dist.Comm) error {
		r, err := run(c, s)
		if c.Rank() == 0 {
			r0 = r
		}
		return err
	})
	if err == nil {
		err = dist.FirstError(errs)
	}
	r0.comm = cs
	return r0, err
}

// onTCP runs the engine on a p-rank world dialled over loopback TCP, one
// endpoint and one NewNetWorld per rank.
func onTCP(p int, s setup, run engine) (result, error) {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return result{}, err
	}
	rdv := ln.Addr().String()
	ln.Close()
	rs, cs, errs := make([]result, p), make([]dist.Counters, p), make([]error, p)
	eps := make([]*distnet.TCPEndpoint, p)
	var wg sync.WaitGroup
	for r := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if eps[r], errs[r] = distnet.DialTCP(distnet.TCPConfig{Rank: r, Size: p, Rendezvous: rdv}); errs[r] != nil {
				return
			}
			w, err := dist.NewNetWorld(eps[r], dist.Options{})
			if err != nil {
				errs[r] = err
				return
			}
			cs[r], errs[r] = w.TryRunLocal(func(c *dist.Comm) (err error) {
				rs[r], err = run(c, s)
				return err
			})
		}()
	}
	wg.Wait()
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
	rs[0].comm = cs
	return rs[0], errors.Join(errs...)
}

// modelRun is one forward and backward of m: the inference output, then the
// training forward, the input cotangent and every parameter gradient from
// the output cotangent gz.
func modelRun(m *gnn.Model, h, gz *tensor.Dense) result {
	r := result{out: m.Forward(h, false).Clone(), after: map[string]*tensor.Dense{"training output": m.Forward(h, true).Clone()}}
	m.ZeroGrad()
	r.after["input cotangent"] = m.Backward(gz).Clone()
	r.after["gradients"] = flat(m.Params(), func(p *gnn.Param) *tensor.Dense { return p.Grad })
	return r
}

// conformModel: gnn.Model in both modes, float32 against float64, and the
// local formulation's mirror of it.
func conformModel(t *testing.T) {
	f64 := engineSetups(tensor.F64)
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for i, s := range engineSetups(dt) {
			t.Run(fmt.Sprintf("%s/model/%s", dt, s.name), func(t *testing.T) {
				gz := randDense(rand.New(rand.NewSource(75)), s.a.Rows, s.cfg.OutDim)
				m := newModel(t, s.cfg, s.a)
				got := modelRun(m, s.h, gz)
				near(t, "inference output", 0, got.out, got.after["training output"])
				if dt == tensor.F32 {
					policy{out: 1e-5, after: 1e-3}.check(t, got, modelRun(newModel(t, f64[i].cfg, s.a), s.h, gz))
					return
				}
				mirror, err := local.Mirror(m)
				if err != nil {
					refused(t, err)
					return
				}
				policy{out: 1e-12, after: 1e-12}.check(t, modelRun(mirror, s.h, gz), got)
			})
		}
	}
}

// newModel builds cfg's model over a, its plans released when t ends.
func newModel(t *testing.T, cfg gnn.Config, a *sparse.CSR) *gnn.Model {
	t.Helper()
	m, err := gnn.New(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.ReleasePlans)
	return m
}

// conformEngines: every engine of the engine axis against the single-node
// model's result, the all-masked loss, and TCP against channels.
func conformEngines(t *testing.T) {
	grid := policy{out: 1e-9, loss: 1e-9, after: 1e-7}
	// The p×1 grid's forward is the single node's row for row, bit for bit;
	// its losses and gradients sum over ranks in another order.
	rowTrain := policy{loss: grid.loss, after: grid.after}
	rows := []struct {
		name   string
		run    engine
		ps     []int
		dt     tensor.DType
		train  bool
		tol    policy
		masked bool // train on an all-masked loss instead
	}{
		{"grid", gridEngine, []int{1}, tensor.F64, true, bitwise, false},
		{"grid", gridEngine, []int{1}, tensor.F32, true, bitwise, false},
		{"grid", gridEngine, []int{4, 9}, tensor.F64, true, grid, false},
		{"grid", gridEngine, []int{4, 9}, tensor.F32, false, policy{out: 2e-6}, false},
		{"row", rowEngine, []int{1}, tensor.F64, true, bitwise, false},
		{"row", rowEngine, []int{3, 4}, tensor.F64, true, rowTrain, false},
		{"row", rowEngine, []int{1}, tensor.F32, true, bitwise, false},
		{"row", rowEngine, []int{3, 4}, tensor.F32, true, policy{loss: 1e-6, after: 1e-4}, false},
		{"local", localEngine, []int{1, 3, 4}, tensor.F64, false, policy{out: 1e-9}, false},
		{"model", singleEngine, []int{1}, tensor.F64, true, bitwise, true},
		{"grid", gridEngine, []int{4}, tensor.F64, true, bitwise, true},
		{"row", rowEngine, []int{4}, tensor.F64, true, bitwise, true},
		{"local", localEngine, []int{1, 3, 4}, tensor.F64, true, bitwise, true},
	}
	for _, row := range rows {
		for _, s := range engineSetups(row.dt) {
			s.train = row.train
			if row.masked {
				s.mask = make([]bool, s.a.Rows)
			}
			want, _ := singleEngine(nil, s)
			for _, p := range row.ps {
				name := fmt.Sprintf("%s/%s/p=%d/%s", row.dt, row.name, p, s.name)
				if row.masked {
					name += "/masked"
				}
				t.Run(name, func(t *testing.T) {
					got, err := onRanks(p, s, row.run)
					switch {
					case err != nil:
						refused(t, err)
					case row.masked:
						checkMasked(t, s, got)
					default:
						row.tol.check(t, got, want)
						if fwd := got.after["training forward"]; fwd != nil {
							near(t, "training forward", 0, fwd, got.out)
						}
					}
				})
			}
		}
	}

	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, s := range engineSetups(dt) {
			s.train = true
			t.Run(fmt.Sprintf("%s/tcp/p=4/%s", dt, s.name), func(t *testing.T) {
				got, err := onTCP(4, s, gridEngine)
				if err != nil {
					t.Fatal(err)
				}
				want, err := onRanks(4, s, gridEngine)
				if err != nil {
					t.Fatal(err)
				}
				bitwise.check(t, got, want)
			})
		}
	}
}

// checkMasked holds a training cell whose loss masks every vertex out to its
// guard: every loss 0, every gradient 0, and SGD leaving every parameter
// where the model's seed put it.
func checkMasked(t *testing.T, s setup, got result) {
	t.Helper()
	params := newModel(t, s.cfg, s.a).Params()
	want := result{losses: tensor.NewDense(1, steps),
		after: map[string]*tensor.Dense{"parameters": flat(params, func(p *gnn.Param) *tensor.Dense { return p.Value })}}
	bitwise.check(t, got, want)
	if g := got.after["gradients"]; g == nil || slices.ContainsFunc(g.Data, func(v float64) bool { return v != 0 }) {
		t.Errorf("gradients %v, want 0", g)
	}
}

// ------------------------------------------------------------------ serving

// squareEgo answers seeds the way the serving engine did before message-flow
// blocks and prefix tables: every layer over the whole induced ego, its rows
// in the adjacency's order, the first from the gathered features.
func squareEgo(t *testing.T, m *gnn.Model, adj *sparse.CSR, feats *tensor.Dense, seeds []int32, hops int) *tensor.Dense {
	t.Helper()
	verts := serving.Expand(adj, seeds, hops)
	bm, err := gnn.RebindAdjacency(m, graph.InducedRows(adj, verts, len(verts)))
	if err != nil {
		t.Fatal(err)
	}
	defer bm.ReleasePlans()
	f := tensor.NewDense(len(verts), feats.Cols)
	for i, v := range verts {
		copy(f.Row(i), feats.Row(int(v)))
	}
	return bm.Forward(f, false).SliceRows(0, len(seeds)).Clone()
}

// egoModels is the serving column's axis: the engine axis's models at both
// widths, and the stacks whose layers run on the square ego — a dropout,
// SGC's k-hop ⊕, a ⊕ joining a vertex's aggregate to its own row — alone
// and around layers that run on blocks.
func egoModels() (names []string, models []func(t *testing.T) *gnn.Model) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, s := range engineSetups(dt) {
			names = append(names, fmt.Sprintf("%s/ego/%s", dt, s.name))
			models = append(models, func(t *testing.T) *gnn.Model { return newModel(t, s.cfg, s.a) })
		}
	}
	loops := graph.AddSelfLoops(engineSetups(tensor.F64)[0].a)
	rng := rand.New(rand.NewSource(44))
	gat := func(in, out int) gnn.Layer { return gnn.NewGATLayer(loops, in, out, gnn.ReLU(), 0.2, rng) }
	sgc := func(in, out int) *gnn.SGCLayer { return gnn.NewSGCLayer(loops, 2, in, out, gnn.Identity(), rng) }
	concat := gnn.CustomAgg("concat", func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node {
		return g.ConcatCols("Z", g.SpMM("AX", psi, x), x)
	})
	for _, st := range []struct {
		name   string
		layers func() []gnn.Layer
	}{
		{"gin", func() []gnn.Layer {
			return []gnn.Layer{gnn.NewGINLayer(loops, 5, 5, 6, gnn.ReLU(), rng), gnn.NewGINLayer(loops, 6, 5, 3, gnn.Identity(), rng)}
		}},
		{"gat-dropout", func() []gnn.Layer { return []gnn.Layer{gat(5, 6), gnn.NewDropout(0.5, 45), gat(6, 3)} }},
		{"dropout-then-gat", func() []gnn.Layer { return []gnn.Layer{gnn.NewDropout(0.5, 45), gat(5, 6), gat(6, 3)} }},
		{"sgc-k2", func() []gnn.Layer { return []gnn.Layer{sgc(5, 3)} }},
		{"sgc-k2-then-gat", func() []gnn.Layer { return []gnn.Layer{sgc(5, 6), gat(6, 3)} }},
		{"gat-then-sgc-k2", func() []gnn.Layer { return []gnn.Layer{gat(5, 6), sgc(6, 3)} }},
		{"sgc-k2-f32", func() []gnn.Layer { l := sgc(5, 3); l.DType = tensor.F32; return []gnn.Layer{l} }},
		{"concat-agg-then-gat", func() []gnn.Layer {
			phi := gnn.LinearPhi(tensor.GlorotInit(10, 6, rng))
			return []gnn.Layer{gnn.NewGenericLayer(loops, gnn.GenericLayer{Agg: concat, Act: gnn.ReLU(), Phi: phi}), gat(6, 3)}
		}},
	} {
		names = append(names, "f64/ego/"+st.name)
		models = append(models, func(*testing.T) *gnn.Model {
			m := &gnn.Model{Layers: st.layers()}
			if strings.HasSuffix(st.name, "f32") {
				m.DType = tensor.F32
			}
			return m
		})
	}
	return names, models
}

// conformEgo: at the model's radius and past it an ego answer is the full
// graph's row bit for bit, alone and in a batch; below the radius it is the
// square ego's.
func conformEgo(t *testing.T) {
	feats := engineSetups(tensor.F64)[0].h
	ctx := context.Background()
	names, models := egoModels()
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			m := models[i](t)
			full := m.Forward(feats, false).Clone()
			m.ReleasePlans()
			adj, err := m.Adjacency()
			if err != nil {
				t.Fatal(err)
			}
			e, err := serving.NewEngine(serving.Config{Model: m, Adj: adj, Features: feats})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop()
			// A batch at the radius is one query; past it or below, each seed
			// is its own.
			answer := func(seeds []int, hops int) {
				t.Helper()
				var got []serving.Prediction
				var err error
				if hops == e.Hops() {
					got, err = e.Predict(ctx, seeds)
				} else {
					for _, v := range seeds {
						p, perr := e.Ego(ctx, v, hops)
						got, err = append(got, p), errors.Join(err, perr)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				for j, p := range got {
					want := full.Row(p.Vertex)
					if hops < e.Hops() {
						want = squareEgo(t, m, adj, feats, []int32{int32(seeds[j])}, hops).Row(0)
					}
					if w := firstBitDiff(p.Logits, want); w >= 0 {
						t.Errorf("seeds %v hops %d: vertex %d logit %d is %v, want %v", seeds, hops, p.Vertex, w, p.Logits[w], want[w])
					}
				}
			}
			for v := range adj.Rows {
				answer([]int{v}, e.Hops())
			}
			for _, seeds := range [][]int{{0, 5, 17}, {27, 3, 28}, {30, 12, 30, 7, 12}} {
				answer(seeds, e.Hops())
			}
			answer([]int{28, 27, 2}, e.Hops()+3)
			answer([]int{9, 28}, 1)
		})
	}
}

// ----------------------------------------------------------------- refusals

// refusals are the cells the program refuses, in the order and with the
// words of the table in docs/ARCHITECTURE.md §4: every backquoted part of a
// text is part of the error the refusing call returns.
var refusals = []struct {
	cell, text string
	try        func(a *sparse.CSR) error
}{
	{"semiring ⊕ × training", "`semiring aggregation \"max\" is forward-only (Section 4.3); only sum has a linear backward` / `semiring aggregation \"Z\" has no VJP and no grid reducer: it needs a single-node inference plan`", func(a *sparse.CSR) error {
		l := gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gnn.AdjacencyPsi(), Agg: gnn.MaxAgg()})
		_, err := layerGraph(l, a, 3).Compile(fuse.Options{Train: true})
		return errors.Join(l.CanTrain(), err)
	}},
	{"semiring ⊕ × grid", "the same `has no VJP and no grid reducer`", func(a *sparse.CSR) error {
		g := layerGraph(gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gnn.AdjacencyPsi(), Agg: gnn.MinAgg()}), a, 3)
		g.SetGrid(oneRankGrid{})
		_, err := g.Compile(fuse.Options{})
		return err
	}},
	{"`LocalEngine` × f32", "`the local-formulation baseline requires f64 (got DType=f32)`", func(*sparse.CSR) error {
		_, err := onRanks(1, engineSetups(tensor.F32)[0], localEngine)
		return err
	}},
	{"`LocalEngine` × multi-head", "`local: cannot mirror layer type *gnn.MultiHeadGATLayer`", func(*sparse.CSR) error {
		_, err := onRanks(1, engineSetups(tensor.F64)[4], localEngine)
		return err
	}},
}

var quoted = regexp.MustCompile("`([^`]*)`")

// refused fails t unless err is a refusal of the table.
func refused(t *testing.T, err error) {
	t.Helper()
	for _, r := range refusals {
		if refuses(r.text, err) {
			return
		}
	}
	t.Errorf("%v: the refusals list no such error", err)
}

// refuses reports whether err holds every backquoted part of text.
func refuses(text string, err error) bool {
	for _, m := range quoted.FindAllStringSubmatch(text, -1) {
		if err == nil || !strings.Contains(err.Error(), m[1]) {
			return false
		}
	}
	return true
}

// conformRefusals: each refused cell still refuses with its text, and
// docs/ARCHITECTURE.md lists exactly these cells with the same texts.
func conformRefusals(t *testing.T) {
	a := weightedGraph(20, 60, 16)
	for _, r := range refusals {
		t.Run("refused/"+r.cell, func(t *testing.T) {
			if err := r.try(a); !refuses(r.text, err) {
				t.Errorf("the refusal returned %v, want %s — a refusal that went away leaves its row here and in docs/ARCHITECTURE.md §4", err, r.text)
			}
		})
	}
	t.Run("refused/docs", func(t *testing.T) {
		doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
		if err != nil {
			t.Fatal(err)
		}
		_, table, _ := strings.Cut(string(doc), "| Cell | Refused by | Error text |\n|---|---|---|\n")
		table, _, _ = strings.Cut(table, "\n\n")
		var got, want []string
		for _, line := range strings.Split(table, "\n") {
			cols := strings.Split(strings.Trim(line, "| "), " | ")
			got = append(got, cols[0]+" → "+cols[len(cols)-1])
		}
		for _, r := range refusals {
			want = append(want, r.cell+" → "+r.text)
		}
		if !slices.Equal(got, want) {
			t.Errorf("docs/ARCHITECTURE.md §4 refuses\n\t%s\nthe table\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
		}
	})
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
		g := kind.graph(a, k, rng)
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

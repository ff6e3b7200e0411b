package gnn

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// testGraph builds a small connected symmetric graph for gradient checks.
func testGraph(n int, seed int64) *sparse.CSR {
	return graph.ErdosRenyi(n, 3*n, seed)
}

// gradCheckModel verifies every parameter gradient and the input-feature
// gradient of a model against central finite differences of the loss. This
// is validation strategy #2 of DESIGN.md: the hand-derived backward
// formulations of Section 5 must match the numerical Jacobian.
func gradCheckModel(t *testing.T, m *Model, h0 *tensor.Dense, loss Loss, tol float64) {
	t.Helper()
	gradCheckModelStep(t, m, h0, loss, 1e-6, tol)
}

// gradCheckModelStep is gradCheckModel with the finite-difference step eps.
// Float32 plans need a large one: their forward carries ~1e-7 relative
// noise, so the perturbation must be large enough for the loss difference
// to rise above it, and the tolerance absorbs what remains.
func gradCheckModelStep(t *testing.T, m *Model, h0 *tensor.Dense, loss Loss, eps, tol float64) {
	t.Helper()
	m.ZeroGrad()
	out := m.Forward(h0, true)
	_, g := loss.Eval(out)
	inGrad := m.Backward(g).Clone() // valid only until the next Forward, and evalLoss runs them

	evalLoss := func() float64 {
		v, _ := loss.Eval(m.Forward(h0, true))
		return v
	}
	check := func(name string, data []float64, analytic []float64) {
		for i := range data {
			orig := data[i]
			data[i] = orig + eps
			lp := evalLoss()
			data[i] = orig - eps
			lm := evalLoss()
			data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-analytic[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, analytic[i], num)
			}
		}
	}
	for _, p := range m.Params() {
		check(p.Name, p.Value.Data, p.Grad.Data)
	}
	check("input", h0.Data, inGrad.Data)
}

func modelForGradcheck(t *testing.T, kind Kind, seed int64) (*Model, *tensor.Dense) {
	t.Helper()
	a := testGraph(10, seed)
	cfg := Config{
		Model: kind, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2,
		Activation: Tanh(), // smooth activation so finite differences are clean
		SelfLoops:  true,
		Seed:       seed,
	}
	m, err := New(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	h0 := tensor.RandN(10, 3, 0.8, rand.New(rand.NewSource(seed+100)))
	return m, h0
}

func TestGradCheckVA(t *testing.T) {
	m, h0 := modelForGradcheck(t, VA, 1)
	loss := &CrossEntropyLoss{Labels: []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}}
	gradCheckModel(t, m, h0, loss, 2e-4)
}

func TestGradCheckAGNN(t *testing.T) {
	m, h0 := modelForGradcheck(t, AGNN, 3)
	loss := &CrossEntropyLoss{Labels: []int{1, 0, 1, 0, 1, 0, 1, 0, 1, 0}}
	gradCheckModel(t, m, h0, loss, 5e-4)
}

func TestGradCheckGAT(t *testing.T) {
	m, h0 := modelForGradcheck(t, GAT, 4)
	loss := &CrossEntropyLoss{Labels: []int{0, 0, 1, 1, 0, 0, 1, 1, 0, 0}}
	gradCheckModel(t, m, h0, loss, 5e-4)
}

func TestGradCheckGCN(t *testing.T) {
	m, h0 := modelForGradcheck(t, GCN, 5)
	loss := &MSELoss{Target: tensor.RandN(10, 2, 1, rand.New(rand.NewSource(8)))}
	gradCheckModel(t, m, h0, loss, 2e-4)
}

func TestGradCheckSingleLayerMSE(t *testing.T) {
	// One-layer variants catch sign errors that two-layer chains can mask;
	// a widening, a square and a narrowing W each, since the order in which a
	// layer multiplies Ψ·H·W — and so its derived backward — may depend on W's
	// shape.
	for _, kind := range []Kind{VA, AGNN, GAT, GCN} {
		for _, dims := range [][2]int{{3, 5}, {3, 3}, {5, 2}} {
			in, out := dims[0], dims[1]
			a := testGraph(8, 11)
			cfg := Config{Model: kind, Layers: 1, InDim: in, HiddenDim: out, OutDim: out,
				Activation: Tanh(), SelfLoops: true, Seed: 11}
			m, err := New(cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			h0 := tensor.RandN(8, in, 1, rand.New(rand.NewSource(12)))
			loss := &MSELoss{Target: tensor.RandN(8, out, 1, rand.New(rand.NewSource(13)))}
			gradCheckModel(t, m, h0, loss, 3e-4)
		}
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	a := testGraph(5, 30)
	rng := rand.New(rand.NewSource(31))
	g := tensor.NewDense(5, 2)
	layers := []Layer{
		NewVALayer(a, 2, 2, ReLU(), rng),
		NewAGNNLayer(a, 2, 2, ReLU(), rng),
		NewGATLayer(a, 2, 2, ReLU(), 0.2, rng),
		NewGCNLayer(a, 2, 2, ReLU(), rng),
	}
	for _, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward before Forward must panic", l.Name())
				}
			}()
			l.Backward(g)
		}()
	}
}

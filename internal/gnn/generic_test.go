package gnn

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// gaussianPsi is the custom Ψ of examples/custom_model: distance-decayed
// attention sm(A ⊙ γ·‖h_i − h_j‖²) with a learnable bandwidth γ.
func gaussianPsi() Psi {
	gamma := NewScalarParam("gamma", -1)
	return CustomPsi("gaussian", func(g *fuse.Graph, h *fuse.Node) *fuse.Node {
		d2 := g.SqDistScores("D2", h, h)
		return g.Softmax("Psi", g.Mask("S", g.ScaleScores("gammaD2", d2, gamma.Node(g)), false))
	}, gamma)
}

// customSumAgg is the sum ⊕ written as a custom fragment, from the node the
// built-in SumAgg appends.
func customSumAgg() Agg {
	return CustomAgg("custom-sum", func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node { return g.SpMM("Z", psi, x) })
}

// tanhLinearPhi is a custom Φ fragment over one parameter: Φ(X) = tanh(X·W).
func tanhLinearPhi(w *tensor.Dense) Phi {
	wp := NewParam("Wc", w)
	return CustomPhi("tanh-linear", func(g *fuse.Graph, x *fuse.Node) *fuse.Node {
		return g.Sigma("cphiAct", g.MM("cphi", x, wp.Node(g)), planAct(Tanh()))
	}, wp)
}

func TestGenericPhiOrderEquivalenceForLinearPhi(t *testing.T) {
	// Section 4.4: for linear Φ, Φ∘⊕ commutes — both application orders
	// must agree.
	a := testGraph(10, 46)
	rng := rand.New(rand.NewSource(47))
	h := tensor.RandN(10, 4, 1, rng)
	w := tensor.GlorotInit(4, 4, rng)
	mk := func(first bool) *GenericLayer {
		return NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: SumAgg(),
			Phi: LinearPhi(w), Act: Identity(), PhiFirst: first})
	}
	x := mk(true).Forward(h, false)
	y := mk(false).Forward(h, false)
	if !x.ApproxEqual(y, 1e-10) {
		t.Fatalf("Φ∘⊕ order changed the result by %g for linear Φ", x.MaxAbsDiff(y))
	}
}

func TestGenericSemiringAggregations(t *testing.T) {
	a := testGraph(10, 48)
	rng := rand.New(rand.NewSource(49))
	h := tensor.RandN(10, 3, 1, rng)

	maxOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: MaxAgg()}).Forward(h, false)
	minOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: MinAgg()}).Forward(h, false)
	meanOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: MeanAgg()}).Forward(h, false)
	sumOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: SumAgg()}).Forward(h, false)
	customOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: customSumAgg()}).Forward(h, false)

	// A custom ⊕ built from the built-in sum's node is the built-in, bit for bit.
	for i, v := range customOut.Data {
		if math.Float64bits(v) != math.Float64bits(sumOut.Data[i]) {
			t.Fatalf("custom sum ⊕ differs from the built-in at %d: %v != %v", i, v, sumOut.Data[i])
		}
	}

	// max ≥ mean-of-features ≥ min per vertex neighborhood (feature-wise).
	for i := 0; i < 10; i++ {
		if a.RowNNZ(i) == 0 {
			continue
		}
		for j := 0; j < 3; j++ {
			if maxOut.At(i, j) < minOut.At(i, j)-1e-12 {
				t.Fatal("max < min")
			}
			if meanOut.At(i, j) > maxOut.At(i, j)+1e-12 || meanOut.At(i, j) < minOut.At(i, j)-1e-12 {
				t.Fatal("mean outside [min, max]")
			}
		}
	}
	// Sum with softmax-normalized Ψ equals the Ψ-weighted mean only when
	// weights sum to one — which they do, so sum == weighted mean.
	if !sumOut.ApproxEqual(meanOut, 1e-9) {
		t.Fatalf("softmax-weighted sum != weighted mean: %g", sumOut.MaxAbsDiff(meanOut))
	}
}

func TestGenericDefaultsAndBackwardPanics(t *testing.T) {
	a := testGraph(6, 50)
	h := tensor.RandN(6, 2, 1, rand.New(rand.NewSource(51)))
	// nil Agg/Phi/Act default to sum/identity/identity.
	gen := NewGenericLayer(a, GenericLayer{Psi: AdjacencyPsi()})
	want := tensor.NewDense(6, 2)
	a.MulDenseInto(want, h)
	if !gen.Forward(h, false).ApproxEqual(want, 1e-12) {
		t.Fatal("defaults wrong")
	}
	if gen.Params() != nil || gen.Name() != "generic" {
		t.Fatal("metadata wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Backward must panic")
		}
	}()
	gen.Backward(h)
}

func TestMLPPhi(t *testing.T) {
	// Φ alone: over the identity adjacency Ψ·X = X, so the layer is its Φ.
	rng := rand.New(rand.NewSource(52))
	x := tensor.RandN(5, 3, 1, rng)
	w1 := tensor.GlorotInit(3, 4, rng)
	w2 := tensor.GlorotInit(4, 2, rng)
	apply := func(phi Phi) *tensor.Dense {
		return NewGenericLayer(sparse.Identity(5), GenericLayer{Phi: phi}).Forward(x, false).Clone()
	}
	got := apply(MLPPhi(ReLU(), w1, w2))
	want := tensor.MM(tensor.MM(x, w1).Apply(ReLU().F), w2)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatal("MLPPhi composition wrong")
	}
	if got.Rows != 5 || got.Cols != 2 {
		t.Fatal("MLPPhi shape wrong")
	}
	// Single-matrix MLP == LinearPhi.
	if !apply(MLPPhi(ReLU(), w1)).ApproxEqual(apply(LinearPhi(w1)), 0) {
		t.Fatal("single-layer MLP != linear")
	}
	if ps := MLPPhi(ReLU(), w1, w2).Params; len(ps) != 2 || ps[0].Name != "W1" || ps[1].Value != w2 {
		t.Fatal("MLPPhi must wrap its matrices, in order, as W1, W2")
	}
}

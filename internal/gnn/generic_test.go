package gnn

import (
	"math/rand"
	"testing"

	"agnn/internal/tensor"
)

func TestGenericLayerMatchesVAForward(t *testing.T) {
	// A GenericLayer assembled from DotPsi + SumAgg + LinearPhi must equal
	// the built-in VA layer's forward pass.
	a := testGraph(15, 40)
	rng := rand.New(rand.NewSource(41))
	h := tensor.RandN(15, 4, 1, rng)
	w := tensor.GlorotInit(4, 3, rand.New(rand.NewSource(42)))

	va := NewVALayer(a, 4, 3, ReLU(), rand.New(rand.NewSource(43)))
	va.W.Value.CopyFrom(w)

	gen := NewGenericLayer(a, GenericLayer{
		Psi: DotPsi(), Agg: SumAgg(), Phi: LinearPhi(w),
		Act: ReLU(), PhiFirst: true,
	})
	if !gen.Forward(h, false).ApproxEqual(va.Forward(h, false), 1e-10) {
		t.Fatal("generic VA != built-in VA")
	}
}

func TestGenericLayerMatchesGCNForward(t *testing.T) {
	a := testGraph(12, 44)
	rng := rand.New(rand.NewSource(45))
	h := tensor.RandN(12, 3, 1, rng)
	w := tensor.GlorotInit(3, 2, rng)
	gen := NewGenericLayer(a, GenericLayer{Psi: AdjacencyPsi(), Agg: SumAgg(), Phi: LinearPhi(w), Act: ReLU()})
	want := tensor.MM(a.MulDense(h), w).Apply(ReLU().F)
	if !gen.Forward(h, false).ApproxEqual(want, 1e-10) {
		t.Fatal("generic GCN forward wrong")
	}
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
	psi := SoftmaxDotPsi().F(a, h)

	maxOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: MaxAgg()}).Forward(h, false)
	minOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: MinAgg()}).Forward(h, false)
	meanOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: MeanAgg()}).Forward(h, false)
	sumOut := NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: SumAgg()}).Forward(h, false)

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
	want := psi.MulDenseMean(h)
	if !sumOut.ApproxEqual(want, 1e-9) {
		t.Fatalf("softmax-weighted sum != weighted mean: %g", sumOut.MaxAbsDiff(want))
	}
}

func TestGenericDefaultsAndBackwardPanics(t *testing.T) {
	a := testGraph(6, 50)
	h := tensor.RandN(6, 2, 1, rand.New(rand.NewSource(51)))
	// nil Agg/Phi/Act default to sum/identity/identity.
	gen := NewGenericLayer(a, GenericLayer{Psi: AdjacencyPsi()})
	want := a.MulDense(h)
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
	rng := rand.New(rand.NewSource(52))
	x := tensor.RandN(5, 3, 1, rng)
	w1 := tensor.GlorotInit(3, 4, rng)
	w2 := tensor.GlorotInit(4, 2, rng)
	phi := MLPPhi(ReLU(), w1, w2)
	got := phi.F(x)
	want := tensor.MM(tensor.MM(x, w1).Apply(ReLU().F), w2)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatal("MLPPhi composition wrong")
	}
	if got.Rows != 5 || got.Cols != 2 {
		t.Fatal("MLPPhi shape wrong")
	}
	// Single-matrix MLP == LinearPhi.
	if !MLPPhi(ReLU(), w1).F(x).ApproxEqual(LinearPhi(w1).F(x), 0) {
		t.Fatal("single-layer MLP != linear")
	}
}

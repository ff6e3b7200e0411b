package gnn

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/tensor"
)

func TestDropoutInferenceIsIdentity(t *testing.T) {
	d := NewDropout(0.5, 1)
	h := tensor.RandN(10, 4, 1, rand.New(rand.NewSource(2)))
	if out := d.Forward(h, false); !out.ApproxEqual(h, 0) {
		t.Fatal("inference dropout must be the identity")
	}
	// Backward with no mask passes the gradient through unchanged.
	g := tensor.RandN(10, 4, 1, rand.New(rand.NewSource(3)))
	if !d.Backward(g).ApproxEqual(g, 0) {
		t.Fatal("inference backward must be identity")
	}
}

func TestDropoutPreservesExpectation(t *testing.T) {
	d := NewDropout(0.3, 4)
	h := tensor.NewDense(200, 50).Fill(1)
	out := d.Forward(h, true)
	mean := 0.0
	zeros := 0
	for _, v := range out.Data {
		mean += v
		if v == 0 {
			zeros++
		}
	}
	mean /= float64(len(out.Data))
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("inverted dropout mean %v, want ≈1", mean)
	}
	frac := float64(zeros) / float64(len(out.Data))
	if math.Abs(frac-0.3) > 0.05 {
		t.Fatalf("dropped fraction %v, want ≈0.3", frac)
	}
}

func TestDropoutBackwardUsesSameMask(t *testing.T) {
	d := NewDropout(0.5, 5)
	h := tensor.NewDense(20, 20).Fill(1)
	out := d.Forward(h, true)
	g := tensor.NewDense(20, 20).Fill(1)
	back := d.Backward(g)
	// The same entries must be dropped in forward and backward.
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("forward and backward masks differ")
		}
	}
}

func TestDropoutZeroRate(t *testing.T) {
	d := NewDropout(0, 6)
	h := tensor.RandN(5, 5, 1, rand.New(rand.NewSource(7)))
	if !d.Forward(h, true).ApproxEqual(h, 0) {
		t.Fatal("rate-0 dropout must be identity in training too")
	}
}

func TestDropoutRejectsBadRate(t *testing.T) {
	for _, r := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v accepted", r)
				}
			}()
			NewDropout(r, 1)
		}()
	}
}

func TestDropoutInModelStack(t *testing.T) {
	// A model with dropout still trains; inference is deterministic.
	a := testGraph(20, 80)
	inner, err := New(Config{Model: GCN, Layers: 2, InDim: 4, HiddenDim: 6,
		OutDim: 2, Activation: ReLU(), Seed: 81}, a)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Layers: []Layer{NewDropout(0.2, 82), inner.Layers[0], inner.Layers[1]}}
	h := tensor.RandN(20, 4, 1, rand.New(rand.NewSource(83)))
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 2
		h.Set(i, labels[i], h.At(i, labels[i])+1)
	}
	hist, err := m.Train(h, &CrossEntropyLoss{Labels: labels}, NewAdam(0.02), 25)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("dropout model did not train: %v → %v", hist[0], hist[len(hist)-1])
	}
	o1 := m.Forward(h, false).Clone() // plan-owned: the next forward overwrites it
	o2 := m.Forward(h, false)
	if !o1.ApproxEqual(o2, 0) {
		t.Fatal("inference must be deterministic")
	}
}

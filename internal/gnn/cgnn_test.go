package gnn

import (
	"math/rand"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// spmm is a·x through the kept SpMM kernel.
func spmm(a *sparse.CSR, x *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(a.Rows, x.Cols)
	a.MulDenseInto(out, x)
	return out
}

func TestGINForwardDefinition(t *testing.T) {
	a := testGraph(10, 600)
	rng := rand.New(rand.NewSource(601))
	l := NewGINLayer(a, 3, 5, 2, Identity(), rng)
	l.Eps.Value.Set(0, 0, 0.5)
	h := tensor.RandN(10, 3, 1, rng)
	got := l.Forward(h, false)
	pre := spmm(a, h).Add(h.Scale(1.5))
	want := tensor.MM(tensor.MM(pre, l.W1.Value).Apply(ReLU().F), l.W2.Value)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("GIN forward differs by %g", got.MaxAbsDiff(want))
	}
}

func TestGINGradCheck(t *testing.T) {
	a := testGraph(9, 602)
	rng := rand.New(rand.NewSource(603))
	l := NewGINLayer(a, 3, 4, 2, Tanh(), rng)
	l.ActMLP = Tanh() // smooth MLP non-linearity for finite differences
	m := &Model{Layers: []Layer{l}}
	h := tensor.RandN(9, 3, 0.7, rng)
	loss := &MSELoss{Target: tensor.RandN(9, 2, 1, rng)}
	gradCheckModel(t, m, h, loss, 3e-4)
}

func TestGINTrains(t *testing.T) {
	adj, labels := graph.PlantedPartition(50, 2, 0.3, 0.02, 604)
	rng := rand.New(rand.NewSource(605))
	m := &Model{Layers: []Layer{
		NewGINLayer(adj, 4, 8, 8, ReLU(), rng),
		NewGINLayer(adj, 8, 8, 2, Identity(), rng),
	}}
	h := tensor.RandN(50, 4, 0.5, rng)
	for i := range labels {
		h.Set(i, labels[i], h.At(i, labels[i])+1)
	}
	hist, err := m.Train(h, &CrossEntropyLoss{Labels: labels}, NewAdam(0.02), 30)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= 0.7*hist[0] {
		t.Fatalf("GIN did not train: %v → %v", hist[0], hist[len(hist)-1])
	}
	// ε is learnable: it should have moved.
	if m.Layers[0].(*GINLayer).Eps.Scalar() == 0 {
		t.Fatal("ε did not receive updates")
	}
}

func TestSGCForwardIsKHopGCNWithoutNonlinearity(t *testing.T) {
	raw := testGraph(12, 606)
	a := graph.NormalizeGCN(raw)
	rng := rand.New(rand.NewSource(607))
	l := NewSGCLayer(a, 3, 4, 2, Identity(), rng)
	h := tensor.RandN(12, 4, 1, rng)
	got := l.Forward(h, false)
	want := tensor.MM(spmm(a, spmm(a, spmm(a, h))), l.W.Value)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("SGC forward differs by %g", got.MaxAbsDiff(want))
	}
}

func TestSGCGradCheck(t *testing.T) {
	raw := testGraph(8, 608)
	a := graph.NormalizeGCN(raw)
	rng := rand.New(rand.NewSource(609))
	l := NewSGCLayer(a, 2, 3, 2, Tanh(), rng)
	m := &Model{Layers: []Layer{l}}
	h := tensor.RandN(8, 3, 1, rng)
	loss := &MSELoss{Target: tensor.RandN(8, 2, 1, rng)}
	gradCheckModel(t, m, h, loss, 3e-4)
}

func TestSGCKOneEqualsGCNForward(t *testing.T) {
	raw := testGraph(15, 610)
	a := graph.NormalizeGCN(raw)
	sgc := NewSGCLayer(a, 1, 4, 3, ReLU(), rand.New(rand.NewSource(611)))
	gcn := NewGCNLayer(a, 4, 3, ReLU(), rand.New(rand.NewSource(612)))
	gcn.W.Value.CopyFrom(sgc.W.Value)
	h := tensor.RandN(15, 4, 1, rand.New(rand.NewSource(613)))
	// GCN computes Â·(H·W); SGC computes (Â·H)·W — associativity makes
	// the two identical, the Φ∘⊕ flexibility once more.
	if !sgc.Forward(h, false).ApproxEqual(gcn.Forward(h, false), 1e-10) {
		t.Fatal("SGC(K=1) != GCN")
	}
}

func TestSGCRejectsZeroHops(t *testing.T) {
	a := testGraph(5, 614)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSGCLayer(a, 0, 2, 2, ReLU(), rand.New(rand.NewSource(615)))
}

func TestCGNNBackwardBeforeForwardPanics(t *testing.T) {
	a := testGraph(5, 616)
	rng := rand.New(rand.NewSource(617))
	for _, l := range []Layer{
		NewGINLayer(a, 2, 3, 2, ReLU(), rng),
		NewSGCLayer(a, 2, 2, 2, ReLU(), rng),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic", l.Name())
				}
			}()
			l.Backward(tensor.NewDense(5, 2))
		}()
	}
}

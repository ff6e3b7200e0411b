package gnn

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/tensor"
)

func TestMultiHeadShapes(t *testing.T) {
	a := testGraph(12, 60)
	rng := rand.New(rand.NewSource(61))
	h := tensor.RandN(12, 5, 1, rng)

	concat := NewMultiHeadGATLayer(a, 5, 4, 3, true, Tanh(), 0.2, rng)
	if concat.OutDim() != 12 {
		t.Fatalf("concat OutDim = %d", concat.OutDim())
	}
	out := concat.Forward(h, false)
	if out.Rows != 12 || out.Cols != 12 {
		t.Fatalf("concat output %d×%d", out.Rows, out.Cols)
	}

	avg := NewMultiHeadGATLayer(a, 5, 4, 3, false, Tanh(), 0.2, rng)
	if avg.OutDim() != 4 {
		t.Fatalf("avg OutDim = %d", avg.OutDim())
	}
	out = avg.Forward(h, false)
	if out.Cols != 4 {
		t.Fatalf("avg output cols %d", out.Cols)
	}
	if got := len(concat.Params()); got != 9 { // 3 heads × (W, a1, a2)
		t.Fatalf("params = %d", got)
	}
	if concat.Name() != "gat-multihead" {
		t.Fatal("name wrong")
	}
}

func TestMultiHeadSingleHeadEqualsGAT(t *testing.T) {
	// One concat head must behave exactly like a plain GAT layer.
	a := testGraph(15, 62)
	h := tensor.RandN(15, 4, 1, rand.New(rand.NewSource(63)))
	mh := NewMultiHeadGATLayer(a, 4, 3, 1, true, Tanh(), 0.2, rand.New(rand.NewSource(64)))
	plain := NewGATLayer(a, 4, 3, Tanh(), 0.2, rand.New(rand.NewSource(64)))
	if !mh.Forward(h, false).ApproxEqual(plain.Forward(h, false), 1e-12) {
		t.Fatal("1-head multi-head != single-head GAT")
	}
}

// TestMultiHeadAverageIsHeadMean: the one-DAG layer equals, bit for bit, K
// single-head GAT layers over the same parameters combined by hand — the
// column concat of their outputs (hidden layers) or their mean, summed in
// head order and scaled by 1/K (final layer) — in both modes.
func TestMultiHeadAverageIsHeadMean(t *testing.T) {
	a := testGraph(10, 65)
	h := tensor.RandN(10, 4, 1, rand.New(rand.NewSource(66)))
	for _, concat := range []bool{false, true} {
		mh := NewMultiHeadGATLayer(a, 4, 3, 4, concat, Tanh(), 0.2, rand.New(rand.NewSource(67)))
		for _, training := range []bool{false, true} {
			want := tensor.NewDense(10, mh.OutDim())
			for i, head := range mh.Heads {
				single := NewGATLayer(a, 4, 3, Tanh(), 0.2, rand.New(rand.NewSource(68)))
				single.GATHead = head
				o := single.Forward(h, training)
				for r := 0; r < 10; r++ {
					if concat {
						copy(want.Row(r)[3*i:], o.Row(r))
					} else {
						for c, v := range o.Row(r) {
							want.Row(r)[c] += v
						}
					}
				}
			}
			if !concat {
				want.ScaleInPlace(0.25)
			}
			got := mh.Forward(h, training)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("concat=%v training=%v: entry %d is %v, K single-head layers give %v", concat, training, i, got.Data[i], v)
				}
			}
		}
	}
}

func TestMultiHeadGradCheck(t *testing.T) {
	// Full finite-difference validation of the multi-head backward pass,
	// both concat and average variants, stacked into a 2-layer model.
	a := testGraph(8, 68)
	rng := rand.New(rand.NewSource(69))
	l1 := NewMultiHeadGATLayer(a, 3, 2, 2, true, Tanh(), 0.2, rng) // out 4
	l2 := NewMultiHeadGATLayer(a, 4, 2, 3, false, Identity(), 0.2, rng)
	m := &Model{Layers: []Layer{l1, l2}}
	h0 := tensor.RandN(8, 3, 0.8, rng)
	loss := &MSELoss{Target: tensor.RandN(8, 2, 1, rng)}
	gradCheckModel(t, m, h0, loss, 5e-4)
}

func TestMultiHeadTrainsOnClassification(t *testing.T) {
	a := testGraph(30, 70)
	rng := rand.New(rand.NewSource(71))
	m := &Model{Layers: []Layer{
		NewMultiHeadGATLayer(a, 6, 4, 2, true, ELU(1), 0.2, rng), // out 8
		NewMultiHeadGATLayer(a, 8, 3, 2, false, Identity(), 0.2, rng),
	}}
	h := tensor.RandN(30, 6, 0.5, rng)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i % 3
		h.Set(i, labels[i], h.At(i, labels[i])+1)
	}
	hist, err := m.Train(h, &CrossEntropyLoss{Labels: labels}, NewAdam(0.02), 30)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= 0.8*hist[0] {
		t.Fatalf("multi-head training did not reduce loss: %v → %v", hist[0], hist[len(hist)-1])
	}
}

func TestMultiHeadPanicsOnZeroHeads(t *testing.T) {
	a := testGraph(5, 72)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadGATLayer(a, 2, 2, 0, true, ReLU(), 0.2, rand.New(rand.NewSource(73)))
}

func TestConfigHeadsBuildsMultiHeadModel(t *testing.T) {
	a := testGraph(20, 74)
	m, err := New(Config{Model: GAT, Layers: 3, InDim: 5, HiddenDim: 4,
		OutDim: 3, Heads: 2, Activation: ELU(1), SelfLoops: true, Seed: 75}, a)
	if err != nil {
		t.Fatal(err)
	}
	for l, layer := range m.Layers {
		mh, ok := layer.(*MultiHeadGATLayer)
		if !ok {
			t.Fatalf("layer %d is %T, want MultiHeadGATLayer", l, layer)
		}
		if l < 2 && (!mh.Concat || mh.OutDim() != 8) {
			t.Fatalf("hidden layer %d: concat=%v out=%d", l, mh.Concat, mh.OutDim())
		}
		if l == 2 && (mh.Concat || mh.OutDim() != 3) {
			t.Fatalf("final layer: concat=%v out=%d", mh.Concat, mh.OutDim())
		}
	}
	// Whole stack runs and trains.
	h := tensor.RandN(20, 5, 0.5, rand.New(rand.NewSource(76)))
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 3
		h.Set(i, labels[i], h.At(i, labels[i])+1)
	}
	hist, err := m.Train(h, &CrossEntropyLoss{Labels: labels}, NewAdam(0.02), 25)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("multi-head config model did not train: %v → %v", hist[0], hist[len(hist)-1])
	}
	// Heads<=1 keeps single-head layers.
	m1, _ := New(Config{Model: GAT, Layers: 1, InDim: 5, HiddenDim: 4, OutDim: 3,
		Heads: 1, Seed: 77}, a)
	if _, ok := m1.Layers[0].(*GATLayer); !ok {
		t.Fatal("Heads=1 must build plain GAT layers")
	}
}

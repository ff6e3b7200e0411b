package gnn

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/tensor"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{InDim: 8}.Defaults()
	if c.Layers != 3 || c.HiddenDim != 8 || c.OutDim != 8 || c.NegSlope != 0.2 {
		t.Fatalf("bad defaults %+v", c)
	}
	if c.Activation.Name != "relu" {
		t.Fatalf("default activation %q", c.Activation.Name)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	a := testGraph(6, 1)
	if _, err := New(Config{Model: VA, Layers: -1, InDim: 2}, a); err == nil {
		t.Fatal("negative layers accepted")
	}
	if _, err := New(Config{Model: VA, InDim: 0, HiddenDim: 2, OutDim: 2, Layers: 1}, a); err == nil {
		t.Fatal("zero InDim accepted")
	}
	rect := graph.Block(a, graph.PrepNone, 0, 0, 3, 3)
	rect.Cols = 5 // force non-square
	if _, err := New(Config{Model: VA, InDim: 2, Layers: 1}, rect); err == nil {
		t.Fatal("non-square adjacency accepted")
	}
}

func TestNewBuildsRequestedLayers(t *testing.T) {
	a := testGraph(8, 2)
	for _, kind := range []Kind{VA, AGNN, GAT, GCN} {
		m, err := New(Config{Model: kind, Layers: 4, InDim: 3, HiddenDim: 5, OutDim: 2, Seed: 1}, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Layers) != 4 {
			t.Fatalf("%v: %d layers", kind, len(m.Layers))
		}
		h := tensor.RandN(8, 3, 1, rand.New(rand.NewSource(3)))
		out := m.Forward(h, false)
		if out.Rows != 8 || out.Cols != 2 {
			t.Fatalf("%v: output shape %d×%d", kind, out.Rows, out.Cols)
		}
	}
}

func TestParamsAndZeroGrad(t *testing.T) {
	a := testGraph(6, 7)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2, Seed: 7}, a)
	if err != nil {
		t.Fatal(err)
	}
	ps := m.Params()
	if len(ps) != 6 { // per GAT layer: W, a1, a2
		t.Fatalf("GAT params = %d, want 6", len(ps))
	}
	wantN := 3*4 + 4 + 4 + 4*2 + 2 + 2
	if m.NumParams() != wantN {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), wantN)
	}
	for _, p := range ps {
		p.Grad.Fill(1)
	}
	m.ZeroGrad()
	for _, p := range ps {
		if p.Grad.FrobeniusNorm() != 0 {
			t.Fatal("ZeroGrad left non-zero gradient")
		}
	}
}

func TestAGNNParamCount(t *testing.T) {
	a := testGraph(6, 8)
	m, _ := New(Config{Model: AGNN, Layers: 2, InDim: 3, HiddenDim: 3, OutDim: 3, Seed: 8}, a)
	ps := m.Params()
	if len(ps) != 4 { // W + beta per layer
		t.Fatalf("AGNN params = %d, want 4", len(ps))
	}
	foundBeta := false
	for _, p := range ps {
		if p.Name == "beta" && p.Scalar() == 1 {
			foundBeta = true
		}
	}
	if !foundBeta {
		t.Fatal("beta not initialized to 1")
	}
}

// TestTrainingReducesLoss: full-batch training must monotonically-ish
// reduce loss on a learnable planted-partition classification task for
// every A-GNN. This is the "training actually works" end-to-end test.
func TestTrainingReducesLoss(t *testing.T) {
	a, labels := graph.PlantedPartition(60, 3, 0.3, 0.02, 9)
	n := 60
	rng := rand.New(rand.NewSource(10))
	// Features: noisy one-hot of the label (learnable but not trivial).
	h := tensor.RandN(n, 6, 0.5, rng)
	for i := 0; i < n; i++ {
		h.Set(i, labels[i], h.At(i, labels[i])+1)
	}
	for _, kind := range []Kind{VA, AGNN, GAT, GCN} {
		m, err := New(Config{Model: kind, Layers: 2, InDim: 6, HiddenDim: 8, OutDim: 3,
			Activation: ReLU(), SelfLoops: true, Seed: 11}, a)
		if err != nil {
			t.Fatal(err)
		}
		loss := &CrossEntropyLoss{Labels: labels}
		hist, err := m.Train(h, loss, NewAdam(0.01), 40)
		if err != nil {
			t.Fatal(err)
		}
		first, last := hist[0], hist[len(hist)-1]
		if !(last < 0.7*first) {
			t.Fatalf("%v: loss did not decrease: %v → %v", kind, first, last)
		}
		if math.IsNaN(last) || math.IsInf(last, 0) {
			t.Fatalf("%v: loss diverged", kind)
		}
		acc := Accuracy(m.Forward(h, false), labels, nil)
		if acc < 0.6 {
			t.Fatalf("%v: train accuracy %v too low", kind, acc)
		}
	}
}

// TestTrainStopsAtNonFiniteLoss: one +Inf feature makes the first loss NaN
// (0·Inf in the projection), and Train stops there with an error naming
// epoch 0 and the value, instead of returning a trajectory of NaNs.
func TestTrainStopsAtNonFiniteLoss(t *testing.T) {
	a, labels := graph.PlantedPartition(30, 3, 0.3, 0.05, 9)
	h := tensor.RandN(30, 4, 1, rand.New(rand.NewSource(10)))
	h.Set(7, 2, math.Inf(1))
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 4, HiddenDim: 5, OutDim: 3, SelfLoops: true, Seed: 11}, a)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := m.Train(h, &CrossEntropyLoss{Labels: labels}, NewAdam(0.01), 5)
	if !errors.Is(err, ErrNonFiniteLoss) || !strings.Contains(err.Error(), "at epoch 0") {
		t.Fatalf("Train returned %v, want a non-finite loss at epoch 0", err)
	}
	if !strings.Contains(err.Error(), "NaN") && !strings.Contains(err.Error(), "Inf") {
		t.Fatalf("the error %q does not name the value", err)
	}
	if len(hist) != 0 {
		t.Fatalf("Train returned the trajectory %v before the first loss", hist)
	}
}

func TestTrainStepAccumulatesIntoOptimizer(t *testing.T) {
	a := testGraph(10, 12)
	m, _ := New(Config{Model: VA, Layers: 1, InDim: 2, HiddenDim: 2, OutDim: 2, Seed: 12}, a)
	h := tensor.RandN(10, 2, 1, rand.New(rand.NewSource(13)))
	loss := &MSELoss{Target: tensor.RandN(10, 2, 1, rand.New(rand.NewSource(14)))}
	before := m.Layers[0].(*VALayer).W.Value.Clone()
	m.TrainStep(h, loss, NewSGD(0.1, 0))
	after := m.Layers[0].(*VALayer).W.Value
	if before.ApproxEqual(after, 0) {
		t.Fatal("TrainStep did not update weights")
	}
}

func TestDeterministicTraining(t *testing.T) {
	// Same seed ⇒ identical loss trajectory.
	run := func() []float64 {
		a := graph.Kronecker(5, 4, 3)
		m, _ := New(Config{Model: GAT, Layers: 2, InDim: 4, HiddenDim: 4, OutDim: 2,
			Activation: Tanh(), SelfLoops: true, Seed: 15}, a)
		h := tensor.RandN(a.Rows, 4, 1, rand.New(rand.NewSource(16)))
		labels := make([]int, a.Rows)
		for i := range labels {
			labels[i] = i % 2
		}
		hist, err := m.Train(h, &CrossEntropyLoss{Labels: labels}, NewSGD(0.05, 0.9), 5)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	h1, h2 := run(), run()
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("training not deterministic at epoch %d: %v vs %v", i, h1[i], h2[i])
		}
	}
}

func TestModelSummary(t *testing.T) {
	a := testGraph(8, 700)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2, Seed: 701}, a)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	for _, want := range []string{"gat", "W[3×4]", "a1[4×1]", "total"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	// Parameter-free layers render a dash.
	m2 := &Model{Layers: []Layer{NewDropout(0.1, 1)}}
	if !strings.Contains(m2.Summary(), "—") {
		t.Fatal("param-free layer marker missing")
	}
}

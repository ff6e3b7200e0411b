package gnn

import (
	"math/rand"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/tensor"
)

func TestRebindSharesParams(t *testing.T) {
	a := testGraph(12, 90)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2, Seed: 91}, a)
	if err != nil {
		t.Fatal(err)
	}
	sub := graph.InducedSubgraph(m.Layers[0].(*GATLayer).A, []int32{0, 1, 2, 3, 4})
	rb, err := RebindAdjacency(m, sub)
	if err != nil {
		t.Fatal(err)
	}
	mp, rp := m.Params(), rb.Params()
	if len(mp) != len(rp) {
		t.Fatal("param count changed")
	}
	for i := range mp {
		if mp[i] != rp[i] {
			t.Fatal("rebound model must share parameter objects")
		}
	}
}

// TestRebindAdjacencyKeepsDType: a rebound model is a copy of its source
// with only the adjacency swapped, so an f32 model must rebind to f32 —
// stamped on the model, compiled into every layer's plans, and bitwise
// equal to the source on the same adjacency — for every plan-backed kind.
func TestRebindAdjacencyKeepsDType(t *testing.T) {
	full := testGraph(30, 110)
	h := tensor.RandN(30, 4, 0.5, rand.New(rand.NewSource(111)))
	for _, kind := range []string{"va", "agnn", "gat", "gcn", "gin", "sgc", "generic", "multihead"} {
		src := sweepModel(t, kind, full, 4, 3)
		src.DType = tensor.F32
		for _, l := range src.Layers {
			l.(DAGLayer).core().DType = tensor.F32
		}
		rb, err := RebindAdjacency(src, full)
		if err != nil {
			t.Fatal(err)
		}
		if rb.DType != tensor.F32 {
			t.Errorf("%s: rebound Model.DType = %v, want f32", kind, rb.DType)
		}
		want := src.Forward(h, true).Clone()
		got := rb.Forward(h, true)
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("%s: rebound output differs from the f32 source at %d: %v != %v", kind, i, v, want.Data[i])
			}
		}
		for i, l := range rb.Layers {
			if dt := l.(DAGLayer).core().Plan().Stats().DType; dt != tensor.F32 {
				t.Errorf("%s: rebound layer %d compiled %v plans, want f32", kind, i, dt)
			}
		}
		src.ReleasePlans()
		rb.ReleasePlans()
	}
}

// unknownLayer is a Layer implementation RebindAdjacency has no case for.
type unknownLayer struct{}

func (unknownLayer) Forward(h *tensor.Dense, training bool) *tensor.Dense { return h }
func (unknownLayer) Backward(g *tensor.Dense) *tensor.Dense               { return g }
func (unknownLayer) Params() []*Param                                     { return nil }
func (unknownLayer) Name() string                                         { return "unknown" }

func TestRebindRejectsUnknownLayer(t *testing.T) {
	m := &Model{Layers: []Layer{unknownLayer{}}}
	if _, err := RebindAdjacency(m, testGraph(4, 92)); err == nil {
		t.Fatal("unknown layer accepted")
	}
	if err := m.Rebind(testGraph(4, 92)); err == nil {
		t.Fatal("unknown layer accepted by in-place Rebind")
	}
}

// TestGlobalMiniBatchTraining demonstrates the paper's mini-batching
// extension of the global formulation: induced-subgraph batches trained
// through the tensor-formulated layers with shared parameters, by one view
// of the model rebound to each batch — its layers compile once and bind
// every later batch.
func TestGlobalMiniBatchTraining(t *testing.T) {
	adj, labels := graph.PlantedPartition(60, 3, 0.25, 0.02, 93)
	n := 60
	rng := rand.New(rand.NewSource(94))
	h := tensor.RandN(n, 6, 0.5, rng)
	for i := 0; i < n; i++ {
		h.Set(i, labels[i], h.At(i, labels[i])+1)
	}
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 6, HiddenDim: 8, OutDim: 3,
		Activation: ReLU(), SelfLoops: true, Seed: 95}, adj)
	if err != nil {
		t.Fatal(err)
	}
	processed := m.Layers[0].(*GATLayer).A // adjacency with self loops
	opt := NewAdam(0.02)
	fullLoss := func() float64 {
		v, _ := (&CrossEntropyLoss{Labels: labels}).Eval(m.Forward(h, false))
		return v
	}
	before := fullLoss()
	view, err := RebindAdjacency(m, processed)
	if err != nil {
		t.Fatal(err)
	}
	defer view.ReleasePlans()
	misses0 := metrics.PlanCacheMisses.Value()
	for step := 0; step < 30; step++ {
		// Batch: a third of the vertices plus their 2-hop closure is the
		// whole subgraph here (small n); we simply take the induced
		// subgraph of a random vertex subset — losses on all batch rows.
		var batch []int32
		for v := step % 3; v < n; v += 3 {
			batch = append(batch, int32(v))
		}
		sub := graph.InducedSubgraph(processed, batch)
		if err := view.Rebind(sub, sub); err != nil {
			t.Fatal(err)
		}
		bh := tensor.NewDense(len(batch), 6)
		bl := make([]int, len(batch))
		for i, v := range batch {
			copy(bh.Row(i), h.Row(int(v)))
			bl[i] = labels[v]
		}
		view.TrainStep(bh, &CrossEntropyLoss{Labels: bl}, opt)
	}
	if d := metrics.PlanCacheMisses.Value() - misses0; d != 2 {
		t.Errorf("30 batches compiled %d plans, want 2: a training plan per layer", d)
	}
	after := fullLoss()
	if !(after < 0.7*before) {
		t.Fatalf("global mini-batch training did not reduce loss: %v → %v", before, after)
	}
}

func TestInducedSubgraphContent(t *testing.T) {
	a := testGraph(10, 96)
	vs := []int32{2, 5, 7}
	sub := graph.InducedSubgraph(a, vs)
	if sub.Rows != 3 {
		t.Fatalf("subgraph size %d", sub.Rows)
	}
	ad, sd := a.ToDense(), sub.ToDense()
	for x, gx := range vs {
		for y, gy := range vs {
			if sd.At(int(x), int(y)) != ad.At(int(gx), int(gy)) {
				t.Fatalf("induced entry (%d,%d) mismatch", x, y)
			}
		}
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	a := testGraph(5, 97)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	graph.InducedSubgraph(a, []int32{1, 1})
}

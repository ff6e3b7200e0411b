package local

import (
	"math/rand"
	"testing"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func testAdj(n int, seed int64) *sparse.CSR {
	return graph.ErdosRenyi(n, 3*n, seed)
}

func TestFromCSRIndexes(t *testing.T) {
	c := sparse.NewCOO(4, 4, 4)
	c.AppendVal(0, 1, 2)
	c.AppendVal(0, 2, 3)
	c.AppendVal(2, 1, 5)
	c.AppendVal(3, 0, 7)
	a := sparse.FromCOO(c)
	g := FromCSR(a)
	if g.N != 4 || g.NNZ() != 4 {
		t.Fatalf("N=%d nnz=%d", g.N, g.NNZ())
	}
	if g.OutDegree(0) != 2 || g.InDegree(1) != 2 || g.InDegree(3) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
	// InPos must map in-edges back to their out-edge slots: value check.
	for v := 0; v < 4; v++ {
		for q := g.InPtr[v]; q < g.InPtr[v+1]; q++ {
			pos := g.InPos[q]
			if int(g.OutCol[pos]) != v {
				t.Fatal("InPos does not point at an edge into v")
			}
		}
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestFromCSRRequiresSquare(t *testing.T) {
	c := sparse.NewCOO(2, 3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromCSR(sparse.FromCOO(c))
}

func TestLocalBackwardBeforeForwardPanics(t *testing.T) {
	g := FromCSR(testAdj(5, 7))
	w := tensor.GlorotInit(2, 2, rand.New(rand.NewSource(8)))
	layers := []gnn.Layer{
		NewVALayer(g, w, gnn.ReLU()),
		NewAGNNLayer(g, w, 1, gnn.ReLU()),
		NewGATLayer(g, w, tensor.NewDense(2, 1), tensor.NewDense(2, 1), gnn.ReLU(), 0.2),
		NewGCNLayer(g, w, gnn.ReLU()),
	}
	for _, l := range layers {
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

func TestMirrorRejectsUnknownLayer(t *testing.T) {
	m := &gnn.Model{Layers: []gnn.Layer{&gnn.GenericLayer{}}}
	if _, err := Mirror(m); err == nil {
		t.Fatal("Mirror must reject unknown layer types")
	}
	if _, err := Rebind(m, nil); err == nil {
		t.Fatal("Rebind must reject unknown layer types")
	}
	// A multi-head layer has no local-formulation counterpart: it must be
	// refused whole, never mirrored as one of its heads.
	a := graph.ErdosRenyi(8, 20, 3)
	mh := gnn.NewMultiHeadGATLayer(a, 3, 2, 2, true, gnn.Tanh(), 0.2, rand.New(rand.NewSource(4)))
	if _, err := Mirror(&gnn.Model{Layers: []gnn.Layer{mh}}); err == nil {
		t.Fatal("Mirror must reject a multi-head GAT layer")
	}
}

func TestNeighborhoodExpand(t *testing.T) {
	// Path 0-1-2-3-4; expanding {0} by 2 hops reaches {0,1,2}.
	c := sparse.NewCOO(5, 5, 8)
	for i := 0; i < 4; i++ {
		c.Append(int32(i), int32(i+1))
		c.Append(int32(i+1), int32(i))
	}
	g := FromCSR(sparse.FromCOO(c))
	b := NeighborhoodExpand(g, []int32{0}, 2)
	if len(b.Vertices) != 3 || b.NumSeeds != 1 {
		t.Fatalf("batch vertices %v", b.Vertices)
	}
	if b.Vertices[0] != 0 {
		t.Fatal("seeds must come first")
	}
	// Induced edges: 0-1, 1-0, 1-2, 2-1.
	if b.Sub.NNZ() != 4 {
		t.Fatalf("induced nnz = %d", b.Sub.NNZ())
	}
	mask := b.SeedMask()
	if !mask[0] || mask[1] || mask[2] {
		t.Fatalf("seed mask %v", mask)
	}
}

func TestMiniBatchSeedOutputsMatchFullBatch(t *testing.T) {
	// With full-neighborhood expansion over L hops, an L-layer model's
	// outputs on the seed vertices must equal the full-batch outputs.
	a := testAdj(40, 9)
	h := tensor.RandN(40, 4, 1, rand.New(rand.NewSource(10)))
	layers := 2
	global, err := gnn.New(gnn.Config{Model: gnn.GAT, Layers: layers, InDim: 4,
		HiddenDim: 4, OutDim: 3, Activation: gnn.ReLU(), Seed: 11}, a)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := Mirror(global)
	if err != nil {
		t.Fatal(err)
	}
	full := loc.Forward(h, false)

	g := FromCSR(global.Layers[0].(*gnn.GATLayer).A)
	batch := NeighborhoodExpand(g, []int32{3, 17, 29}, layers)
	sub, err := Rebind(loc, batch.Sub)
	if err != nil {
		t.Fatal(err)
	}
	out := sub.Forward(GatherRows(h, batch.Vertices), false)
	for s := 0; s < batch.NumSeeds; s++ {
		gv := int(batch.Vertices[s])
		for j := 0; j < 3; j++ {
			if diff := out.At(s, j) - full.At(gv, j); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d output differs: %v vs %v", gv, out.At(s, j), full.At(gv, j))
			}
		}
	}
}

func TestSamplerCoversEpoch(t *testing.T) {
	g := FromCSR(testAdj(50, 12))
	s := NewSampler(g, 16, 1, 13)
	seen := map[int32]int{}
	for i := 0; i < 3; i++ { // 3 batches × 16 = 48 ≤ 50 seeds, no reshuffle yet
		b := s.Next()
		if b.NumSeeds != 16 {
			t.Fatalf("batch %d has %d seeds", i, b.NumSeeds)
		}
		for _, v := range b.Vertices[:b.NumSeeds] {
			seen[v]++
		}
	}
	if len(seen) != 48 {
		t.Fatalf("saw %d distinct seeds, want 48 (no repeats within epoch)", len(seen))
	}
	// Next call crosses the epoch boundary and reshuffles.
	b := s.Next()
	if b.NumSeeds != 16 {
		t.Fatal("post-reshuffle batch size wrong")
	}
}

func TestMiniBatchTrainingReducesLoss(t *testing.T) {
	adj, labels := graph.PlantedPartition(60, 3, 0.3, 0.02, 14)
	g := FromCSR(adj)
	h := tensor.RandN(60, 6, 0.5, rand.New(rand.NewSource(15)))
	for i := 0; i < 60; i++ {
		h.Set(i, labels[i], h.At(i, labels[i])+1)
	}
	w := tensor.GlorotInit(6, 3, rand.New(rand.NewSource(16)))
	base := &gnn.Model{Layers: []gnn.Layer{NewGCNLayer(g, w, gnn.Identity())}}
	opt := gnn.NewAdam(0.02)
	s := NewSampler(g, 20, 1, 17)

	lossAt := func() float64 {
		v, _ := (&gnn.CrossEntropyLoss{Labels: labels}).Eval(base.Forward(h, false))
		return v
	}
	before := lossAt()
	for step := 0; step < 30; step++ {
		b := s.Next()
		sub, err := Rebind(base, b.Sub)
		if err != nil {
			t.Fatal(err)
		}
		batchLabels := make([]int, len(b.Vertices))
		for i, v := range b.Vertices {
			batchLabels[i] = labels[v]
		}
		sub.ZeroGrad()
		out := sub.Forward(GatherRows(h, b.Vertices), true)
		_, grad := (&gnn.CrossEntropyLoss{Labels: batchLabels, Mask: b.SeedMask()}).Eval(out)
		sub.Backward(grad)
		opt.Step(sub.Params())
	}
	after := lossAt()
	if after >= before {
		t.Fatalf("mini-batch training did not reduce loss: %v → %v", before, after)
	}
}

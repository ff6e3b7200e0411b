package gnn

import (
	"math/rand"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// planLayersOn builds one instance of every plan-backed layer kind on
// adjacency a (deterministic per seed): the built-ins, a 2-head GAT and a
// generic layer with a custom Ψ fragment.
func planLayersOn(a *sparse.CSR, in, out int, seed int64) []Layer {
	an := graph.NormalizeGCN(a)
	mk := func() *rand.Rand { return rand.New(rand.NewSource(seed + 1)) }
	gin := NewGINLayer(a, in, in+1, out, Tanh(), mk())
	gin.ActMLP = Tanh()
	return []Layer{
		NewVALayer(a, in, out, Tanh(), mk()),
		NewGCNLayer(an, in, out, Tanh(), mk()),
		NewAGNNLayer(a, in, out, Tanh(), mk()),
		NewGATLayer(a, in, out, Tanh(), 0.2, mk()),
		gin,
		NewSGCLayer(an, 2, in, out, Tanh(), mk()),
		NewMultiHeadGATLayer(a, in, out, 2, false, Tanh(), 0.2, mk()),
		NewGenericLayer(a, GenericLayer{Psi: gaussianPsi(), Phi: LinearPhi(tensor.GlorotInit(in, out, mk())), Act: Tanh()}),
	}
}

// planLayerFixtures is planLayersOn over a 12-vertex test graph with 4 → 3
// features, plus a matching input.
func planLayerFixtures(seed int64) (layers []Layer, h *tensor.Dense) {
	layers = planLayersOn(testGraph(12, seed), 4, 3, seed)
	h = tensor.RandN(12, 4, 0.8, rand.New(rand.NewSource(seed+2)))
	return layers, h
}

// TestPlannedLayerSteadyStateAllocs: after the first (compiling, warm-up)
// step, the planned hot path must run with zero allocations in both modes —
// every intermediate lives in the plan's preallocated workspace, and every
// loop body (the fused attention VJP's sweeps, the cotangent clear) is built
// at compile time. Besides the 12-vertex fixtures, a GAT and a 2-head GAT on
// 300 vertices, above par's inline threshold, whose sweeps would fan out at
// more than one worker. Pinned to one worker because the parallel runtime
// allocates goroutine bookkeeping when fanning out.
func TestPlannedLayerSteadyStateAllocs(t *testing.T) {
	prev := par.Workers()
	par.SetWorkers(1)
	defer par.SetWorkers(prev)

	layers, h := planLayerFixtures(801)
	gOut := tensor.NewDense(12, 3)
	gOut.Fill(0.25)
	const big = 300
	a := testGraph(big, 801)
	rng := rand.New(rand.NewSource(802))
	bigLayers := []Layer{NewGATLayer(a, 4, 3, Tanh(), 0.2, rng), NewMultiHeadGATLayer(a, 4, 3, 2, false, Tanh(), 0.2, rng)}
	bigH, bigOut := tensor.RandN(big, 4, 0.8, rng), tensor.NewDense(big, 3)
	bigOut.Fill(0.25)

	for i, l := range append(layers, bigLayers...) {
		if i >= len(layers) {
			h, gOut = bigH, bigOut
		}
		l.Forward(h, true) // compile + warm up lazily allocated scratch
		l.Backward(gOut)
		l.Forward(h, false)
		if n := testing.AllocsPerRun(20, func() { l.Forward(h, true) }); n > 0 {
			t.Fatalf("%s: planned forward allocates %v per step", l.Name(), n)
		}
		if n := testing.AllocsPerRun(20, func() { l.Forward(h, true); l.Backward(gOut) }); n > 0 {
			t.Fatalf("%s: planned forward+backward allocates %v per step", l.Name(), n)
		}
		if n := testing.AllocsPerRun(20, func() { l.Forward(h, false) }); n > 0 {
			t.Fatalf("%s: inference forward allocates %v per step", l.Name(), n)
		}
	}
}

// TestTrainStepSteadyStateAllocs is TestPlannedLayerSteadyStateAllocs for a
// whole training step: once warm, Model.TrainStep — ZeroGrad, the planned
// forward, a masked cross-entropy, the backward and an Adam or momentum-SGD
// step — allocates nothing, for every built-in kind and a 2-head GAT, at
// both widths, on one worker and on two. Per-step garbage, however small, is what lets the heap
// grow to twice its live set between collections. 300 vertices put every
// sweep, the loss's included, above par's inline threshold, so at two
// workers they fan out to the pool (not under the race detector: see
// raceEnabled).
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)

	const n, in, classes = 300, 4, 3
	a := testGraph(n, 830)
	rng := rand.New(rand.NewSource(831))
	h := tensor.RandN(n, in, 0.8, rng)
	labels, mask := make([]int, n), make([]bool, n)
	for i := range labels {
		labels[i], mask[i] = rng.Intn(classes), i%4 != 0
	}
	type cell struct {
		kind  Kind
		heads int
	}
	for _, c := range []cell{{VA, 1}, {AGNN, 1}, {GAT, 1}, {GCN, 1}, {GAT, 2}} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, workers := range []int{1, 2} {
				if workers > 1 && raceEnabled {
					continue
				}
				par.SetWorkers(workers)
				opts := []Optimizer{NewAdam(0.01)}
				if !raceEnabled { // momentum SGD's in-place ops run pooled jobs
					opts = append(opts, NewSGD(0.05, 0.9))
				}
				for _, opt := range opts {
					m, err := New(Config{Model: c.kind, Heads: c.heads, Layers: 2, InDim: in, HiddenDim: 5,
						OutDim: classes, Activation: Tanh(), SelfLoops: true, Seed: 832, DType: dt}, a)
					if err != nil {
						t.Fatal(err)
					}
					loss := &CrossEntropyLoss{Labels: labels, Mask: mask}
					for i := 0; i < 2; i++ { // compile, then acquire what the first step defers
						m.TrainStep(h, loss, opt)
					}
					if allocs := testing.AllocsPerRun(10, func() { m.TrainStep(h, loss, opt) }); allocs != 0 {
						t.Errorf("%v heads=%d %v workers=%d %s: %v allocations per training step, want 0",
							c.kind, c.heads, dt, workers, opt.Name(), allocs)
					}
					m.ReleasePlans()
				}
			}
		}
	}
}

// TestInferenceOutputIsPlanOwned documents the aliasing contract of
// Layer.Forward / Model.Forward: the result is the plan's output buffer in
// both modes, so a second forward of the same model overwrites it.
func TestInferenceOutputIsPlanOwned(t *testing.T) {
	a := testGraph(14, 803)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2, SelfLoops: true, Seed: 804}, a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(805))
	h1, h2 := tensor.RandN(14, 3, 1, rng), tensor.RandN(14, 3, 1, rng)

	out1 := m.Forward(h1, false)
	kept := out1.Clone()
	out2 := m.Forward(h2, false)
	if &out1.Data[0] != &out2.Data[0] {
		t.Fatal("inference forwards of one model must return the same plan-owned buffer")
	}
	if out1.ApproxEqual(kept, 0) {
		t.Fatal("second forward on different input left the held output untouched")
	}
	// A caller that needs the first result across the second forward copies it.
	if !m.Forward(h1, false).ApproxEqual(kept, 0) {
		t.Fatal("copied output does not reproduce")
	}
}

func TestMultiHeadGATGradCheckPlanned(t *testing.T) {
	for _, concat := range []bool{true, false} {
		a := testGraph(9, 810)
		rng := rand.New(rand.NewSource(811))
		mh := NewMultiHeadGATLayer(a, 3, 2, 3, concat, Tanh(), 0.2, rng)
		m := &Model{Layers: []Layer{mh}}
		h := tensor.RandN(9, 3, 0.8, rng)
		loss := &MSELoss{Target: tensor.RandN(9, mh.OutDim(), 1, rng)}
		gradCheckModel(t, m, h, loss, 5e-4)
	}
}

// TestGenericGradCheckPlanned: the generic Ψ/⊕/Φ layer gets a real trained
// backward from the plan compiler, at both widths — built-in assemblies with
// linear and MLP Φ in both application orders, and custom fragments.
func TestGenericGradCheckPlanned(t *testing.T) {
	a := testGraph(9, 820)
	rng := rand.New(rand.NewSource(821))
	cases := []struct {
		name string
		mk   func() *GenericLayer
	}{
		{"dot+linear+phiFirst", func() *GenericLayer {
			return NewGenericLayer(a, GenericLayer{Psi: DotPsi(), Agg: SumAgg(),
				Phi: LinearPhi(tensor.GlorotInit(3, 2, rng)), Act: Tanh(), PhiFirst: true})
		}},
		{"softmaxdot+linear", func() *GenericLayer {
			return NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: SumAgg(),
				Phi: LinearPhi(tensor.GlorotInit(3, 2, rng)), Act: Tanh()})
		}},
		{"adjacency+mlp", func() *GenericLayer {
			return NewGenericLayer(a, GenericLayer{Psi: AdjacencyPsi(), Agg: SumAgg(),
				Phi: MLPPhi(Tanh(), tensor.GlorotInit(3, 4, rng), tensor.GlorotInit(4, 2, rng)),
				Act: Tanh()})
		}},
		// A custom Ψ fragment (examples/custom_model's) trains like a
		// built-in: γ, the MLP and the input all pass the check.
		{"custom gaussian Ψ+mlp", func() *GenericLayer {
			return NewGenericLayer(a, GenericLayer{Psi: gaussianPsi(),
				Phi: MLPPhi(Tanh(), tensor.GlorotInit(3, 4, rng), tensor.GlorotInit(4, 2, rng)),
				Act: Tanh()})
		}},
		{"softmaxdot+custom ⊕+custom Φ", func() *GenericLayer {
			return NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: customSumAgg(),
				Phi: tanhLinearPhi(tensor.GlorotInit(3, 2, rng)), Act: Tanh()})
		}},
	}
	for _, tc := range cases {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			gen := tc.mk()
			gen.DType = dt
			if err := gen.CanTrain(); err != nil {
				t.Fatalf("%s: expected trainable, got %v", tc.name, err)
			}
			m := &Model{Layers: []Layer{gen}}
			h := tensor.RandN(9, 3, 0.8, rand.New(rand.NewSource(822)))
			loss := &MSELoss{Target: tensor.RandN(9, 2, 1, rand.New(rand.NewSource(823)))}
			if dt == tensor.F32 {
				gradCheckModelStep(t, m, h, loss, 1e-3, 2e-2)
			} else {
				gradCheckModel(t, m, h, loss, 5e-4)
			}
		}
	}
}

// TestUntrainableGenericIsReportedNotPanicked: Model.Train must refuse an
// untrainable assembly with a descriptive error before any backward pass
// can panic (the TrainableLayer contract).
func TestUntrainableGenericIsReportedNotPanicked(t *testing.T) {
	a := testGraph(8, 830)
	h := tensor.RandN(8, 3, 1, rand.New(rand.NewSource(831)))
	m := &Model{Layers: []Layer{
		NewGenericLayer(a, GenericLayer{Psi: SoftmaxDotPsi(), Agg: MaxAgg()}),
	}}
	if err := m.CheckTrainable(); err == nil {
		t.Fatal("semiring aggregation must be reported as untrainable")
	}
	hist, err := m.Train(h, &MSELoss{Target: tensor.NewDense(8, 3)}, NewSGD(0.1, 0), 3)
	if err == nil || hist != nil {
		t.Fatalf("Train must refuse untrainable models, got hist=%v err=%v", hist, err)
	}
	// A custom fragment is a DAG like any other: trainable.
	if err := NewGenericLayer(a, GenericLayer{Psi: gaussianPsi()}).CanTrain(); err != nil {
		t.Fatalf("custom Ψ fragment reported untrainable: %v", err)
	}
	// A trainable stack passes the check.
	ok := &Model{Layers: []Layer{NewGenericLayer(a, GenericLayer{Psi: DotPsi(), Agg: SumAgg(),
		Phi: LinearPhi(tensor.GlorotInit(3, 3, rand.New(rand.NewSource(832))))})}}
	if err := ok.CheckTrainable(); err != nil {
		t.Fatalf("trainable generic reported untrainable: %v", err)
	}
}

// BenchmarkPlannedForwardAllocs isolates the planned forward hot path, in
// both modes and for every built-in kind, for the CI allocation gate — and a
// whole float32 model, whose layers hand each other typed activations.
func BenchmarkPlannedForwardAllocs(b *testing.B) {
	a := graph.Kronecker(9, 8, 1)
	h := tensor.RandN(a.Rows, 16, 1, rand.New(rand.NewSource(5)))
	b.Run("model-f32/infer", func(b *testing.B) {
		m, err := New(Config{Model: AGNN, Layers: 3, InDim: 16, HiddenDim: 16, OutDim: 16, Seed: 6, DType: tensor.F32}, a)
		if err != nil {
			b.Fatal(err)
		}
		defer m.ReleasePlans()
		m.Forward(h, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Forward(h, false)
		}
	})
	for _, l := range planLayersOn(a, 16, 16, 6) {
		for _, training := range []bool{true, false} {
			mode := "infer"
			if training {
				mode = "train"
			}
			b.Run(l.Name()+"/"+mode, func(b *testing.B) {
				l.Forward(h, training)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Forward(h, training)
				}
			})
		}
	}
}

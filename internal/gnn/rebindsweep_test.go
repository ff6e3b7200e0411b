package gnn

import (
	"math/rand"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The rebind sweep: one view of a model visiting K structurally distinct
// subgraphs compiles each layer's plan once — asserted through the
// agnn_plancache_{misses,hits} counters, a compile and a bind — and every
// execution on a bound plan is bitwise identical to a fresh compile's over
// the same subgraph.

// sweepModel builds a single-layer model of the given kind over adjacency a
// with deterministic weights.
func sweepModel(t *testing.T, kind string, a *sparse.CSR, in, out int) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	switch kind {
	case "va":
		return &Model{Layers: []Layer{NewVALayer(a, in, out, Tanh(), rng)}}
	case "agnn":
		return &Model{Layers: []Layer{NewAGNNLayer(a, in, out, Tanh(), rng)}}
	case "gat":
		return &Model{Layers: []Layer{NewGATLayer(a, in, out, Tanh(), 0.2, rng)}}
	case "gcn":
		return &Model{Layers: []Layer{NewGCNLayer(a, in, out, Tanh(), rng)}}
	case "gin":
		return &Model{Layers: []Layer{NewGINLayer(a, in, 5, out, Tanh(), rng)}}
	case "sgc":
		return &Model{Layers: []Layer{NewSGCLayer(a, 2, in, out, Tanh(), rng)}}
	case "generic":
		w := tensor.GlorotInit(in, out, rng)
		return &Model{Layers: []Layer{NewGenericLayer(a, GenericLayer{
			Psi: SoftmaxDotPsi(), Agg: SumAgg(), Phi: LinearPhi(w), Act: Tanh(),
		})}}
	case "multihead":
		return &Model{Layers: []Layer{NewMultiHeadGATLayer(a, in, out, 2, true, Tanh(), 0.2, rng)}}
	}
	t.Fatalf("unknown sweep kind %q", kind)
	return nil
}

func TestPlanCacheRebindSweep(t *testing.T) {
	const (
		K   = 3 // structurally distinct subgraphs
		in  = 4
		out = 3
	)
	full := testGraph(40, 70)
	subs := make([]*sparse.CSR, K)
	for k := range subs {
		var vs []int32
		for v := k; v < 40; v += K + 1 {
			vs = append(vs, int32(v))
		}
		subs[k] = graph.InducedSubgraph(full, vs)
	}

	// plansPer maps layer kind → compiled plans per model: a layer is one
	// DAG, multi-head included.
	plansPer := map[string]int64{"va": 1, "agnn": 1, "gat": 1, "gcn": 1,
		"gin": 1, "sgc": 1, "generic": 1, "multihead": 1}

	for kind, nPlans := range plansPer {
		t.Run(kind, func(t *testing.T) {
			src := sweepModel(t, kind, full, in, out)
			rng := rand.New(rand.NewSource(11))
			feats := make([]*tensor.Dense, K)
			for k := range feats {
				feats[k] = tensor.RandN(subs[k].Rows, in, 0.5, rng)
			}

			// Fresh compiles: a view per subgraph, released after its forward.
			var fresh [K][]float64
			for k := 0; k < K; k++ {
				bm, err := RebindAdjacency(src, subs[k])
				if err != nil {
					t.Fatal(err)
				}
				fresh[k] = append([]float64(nil), bm.Forward(feats[k], false).Data...)
				bm.ReleasePlans()
			}

			misses0 := metrics.PlanCacheMisses.Value()
			hits0 := metrics.PlanCacheHits.Value()
			// One view over all subgraphs for three rounds: the first forward
			// compiles, every later one binds, with bitwise-identical outputs.
			view, err := RebindAdjacency(src, subs[0])
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				for k := 0; k < K; k++ {
					if err := view.Rebind(subs[k]); err != nil {
						t.Fatal(err)
					}
					got := view.Forward(feats[k], false)
					for i, v := range got.Data {
						if v != fresh[k][i] {
							t.Fatalf("round %d subgraph %d: bound output differs "+
								"from fresh at %d: %v != %v", round, k, i, v, fresh[k][i])
						}
					}
				}
			}
			view.ReleasePlans()

			if d := metrics.PlanCacheMisses.Value() - misses0; d != nPlans {
				t.Fatalf("agnn_plancache_misses delta = %d, want %d (one compile per layer)", d, nPlans)
			}
			wantHits := nPlans * (3*K - 1)
			if d := metrics.PlanCacheHits.Value() - hits0; d != wantHits {
				t.Fatalf("agnn_plancache_hits delta = %d, want %d (a bind per later forward)", d, wantHits)
			}
		})
	}
}

// TestModelRebindInPlace covers the Rebind path the mini-batch example and
// the serving engine use: one model rotating over fixed subgraphs compiles
// each layer's plan once and binds it thereafter.
func TestModelRebindInPlace(t *testing.T) {
	const K = 4
	full := testGraph(36, 71)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 5, HiddenDim: 6, OutDim: 3,
		Activation: ReLU(), SelfLoops: true, Seed: 72}, full)
	if err != nil {
		t.Fatal(err)
	}
	processed := m.Layers[0].(*GATLayer).A
	subs := make([]*sparse.CSR, K)
	feats := make([]*tensor.Dense, K)
	rng := rand.New(rand.NewSource(73))
	for k := range subs {
		var vs []int32
		for v := k; v < 36; v += K {
			vs = append(vs, int32(v))
		}
		subs[k] = graph.InducedSubgraph(processed, vs)
		feats[k] = tensor.RandN(len(vs), 5, 0.5, rng)
	}

	misses0 := metrics.PlanCacheMisses.Value()
	for epoch := 0; epoch < 3; epoch++ {
		for k := 0; k < K; k++ {
			if err := m.Rebind(subs[k], subs[k]); err != nil {
				t.Fatal(err)
			}
			m.PlannedForward(feats[k])
		}
	}
	m.ReleasePlans()
	// 2 layers compiled once each, regardless of subgraphs and epochs.
	if d := metrics.PlanCacheMisses.Value() - misses0; d != 2 {
		t.Fatalf("in-place rebind misses delta = %d, want 2", d)
	}

	// Rebinding back to the full processed adjacency restores normal use.
	if err := m.Rebind(processed, processed); err != nil {
		t.Fatal(err)
	}
	h := tensor.RandN(36, 5, 0.5, rng)
	if got := m.Forward(h, false); got.Rows != 36 || got.Cols != 3 {
		t.Fatalf("forward after rebind: %dx%d", got.Rows, got.Cols)
	}
}

// TestReleasePlansIdempotent pins the plans' lifecycle: releasing twice (or
// with nothing compiled) must be harmless.
func TestReleasePlansIdempotent(t *testing.T) {
	a := testGraph(16, 74)
	m, err := New(Config{Model: VA, Layers: 1, InDim: 3, OutDim: 3, SelfLoops: true, Seed: 75}, a)
	if err != nil {
		t.Fatal(err)
	}
	m.ReleasePlans() // nothing compiled yet
	h := tensor.RandN(16, 3, 0.5, rand.New(rand.NewSource(76)))
	m.Forward(h, true)
	m.ReleasePlans()
	m.ReleasePlans()
	m.Forward(h, true) // compiling again after release works
	m.ReleasePlans()
}

package distgnn

import (
	"math"
	"sync"
	"testing"

	"agnn/internal/dist"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func testCfg(kind gnn.Kind, layers, in, hid, out int) gnn.Config {
	// Tanh keeps feature magnitudes bounded: VA's unnormalized dot-product
	// attention amplifies values exponentially per layer under ReLU, which
	// makes absolute float comparisons meaningless.
	return gnn.Config{Model: kind, Layers: layers, InDim: in, HiddenDim: hid,
		OutDim: out, Activation: gnn.Tanh(), SelfLoops: true, Seed: 77}
}

func testFeatures(n, k int) *tensor.Dense {
	h := tensor.NewDense(n, k)
	for i := range h.Data {
		// Deterministic, seed-free features shared by all ranks.
		h.Data[i] = math.Sin(float64(i)*0.37) * 0.8
	}
	return h
}

// runGlobal executes the grid engine on p ranks and returns the gathered
// output along with the per-rank counters.
func runGlobal(t *testing.T, p int, a *sparse.CSR, cfg gnn.Config, h *tensor.Dense, training bool) (*tensor.Dense, []dist.Counters) {
	t.Helper()
	var out *tensor.Dense
	var mu sync.Mutex
	cs := dist.Run(p, func(c *dist.Comm) {
		e, err := NewGlobalEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		xd := e.SliceOwnedBlock(h)
		o := e.Forward(xd, training)
		full := e.GatherOutput(o, cfg.OutDim)
		if full != nil {
			mu.Lock()
			out = full
			mu.Unlock()
		}
	})
	return out, cs
}

func TestGlobalEngineRejectsNonSquareP(t *testing.T) {
	a := graph.ErdosRenyi(10, 20, 6)
	dist.Run(2, func(c *dist.Comm) {
		if _, err := NewGlobalEngine(c, a, testCfg(gnn.VA, 1, 2, 2, 2)); err == nil {
			t.Error("p=2 (not a perfect square) accepted")
		}
	})
}

// TestGlobalVolumeScalesAsTheory: per-rank volume must shrink ≈2× when p
// grows 4× (the O(nk/√p) law), for fixed n and k.
func TestGlobalVolumeScalesAsTheory(t *testing.T) {
	a := graph.ErdosRenyi(64, 600, 7)
	cfg := testCfg(gnn.GAT, 2, 8, 8, 8)
	h := testFeatures(64, 8)
	_, cs4 := runGlobal(t, 4, a, cfg, h, false)
	_, cs16 := runGlobal(t, 16, a, cfg, h, false)
	v4 := dist.MaxCounters(cs4).BytesSent
	v16 := dist.MaxCounters(cs16).BytesSent
	ratio := float64(v4) / float64(v16)
	if ratio < 1.4 || ratio > 3.0 {
		t.Fatalf("volume ratio p4/p16 = %.2f, want ≈2 (O(nk/√p))", ratio)
	}
}

// ------------------------- local (DistDGL-like) baseline -----------------

// TestLocalEngineHaloKeepsPattern: the extended local graph a rank builds
// from a pattern adjacency (the halo COO) is a pattern; GCN's holds its
// normalized values.
func TestLocalEngineHaloKeepsPattern(t *testing.T) {
	a := graph.ErdosRenyi(40, 120, 3)
	for _, kind := range []gnn.Kind{gnn.GAT, gnn.GCN} {
		cfg := testCfg(kind, 1, 4, 4, 4)
		dist.Run(2, func(c *dist.Comm) {
			e, err := NewLocalEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if (e.extGraph.OutVal == nil) != (kind != gnn.GCN) {
				t.Errorf("%s rank %d: extended graph values nil %t", kind, c.Rank(), e.extGraph.OutVal == nil)
			}
		})
	}
}

func TestLocalEngineHaloGrowsWithDegree(t *testing.T) {
	// Denser graph ⇒ larger halo ⇒ more per-layer volume: the Ω(nkd/p) law.
	n := 64
	sparseG := graph.ErdosRenyi(n, 2*n, 9)
	denseG := graph.ErdosRenyi(n, 12*n, 9)
	cfg := testCfg(gnn.GCN, 2, 8, 8, 8)
	h := testFeatures(n, 8)
	vol := func(a *sparse.CSR) int64 {
		cs := dist.Run(4, func(c *dist.Comm) {
			e, err := NewLocalEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			e.Forward(h.SliceRows(e.Lo, e.Hi).Clone())
		})
		return dist.MaxCounters(cs).BytesSent
	}
	vs, vd := vol(sparseG), vol(denseG)
	if vd <= vs {
		t.Fatalf("denser graph should move more data: sparse %d vs dense %d bytes", vs, vd)
	}
}

func TestMiniBatchStepTrains(t *testing.T) {
	adj, labels := graph.PlantedPartition(48, 3, 0.3, 0.02, 10)
	n := 48
	h := tensor.NewDense(n, 6)
	for i := 0; i < n; i++ {
		h.Set(i, labels[i], 1)
		h.Set(i, 3+(i%3), 0.3)
	}
	cfg := testCfg(gnn.GCN, 2, 6, 6, 3)
	var losses []float64
	var mu sync.Mutex
	dist.Run(4, func(c *dist.Comm) {
		e, err := NewLocalEngine(c, adj, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		hOwned := h.SliceRows(e.Lo, e.Hi).Clone()
		opt := gnn.NewAdam(0.05)
		var ls []float64
		// Deterministic batches: every rank seeds all of its owned
		// vertices each step, so successive losses are comparable.
		var seeds []int32
		for v := e.Lo; v < e.Hi; v++ {
			seeds = append(seeds, int32(v))
		}
		for step := 0; step < 30; step++ {
			ls = append(ls, e.MiniBatchStep(hOwned, labels, seeds, opt))
		}
		if c.Rank() == 0 {
			mu.Lock()
			losses = ls
			mu.Unlock()
		}
	})
	first, last := losses[0], losses[len(losses)-1]
	if !(last < 0.6*first) {
		t.Fatalf("mini-batch training did not reduce loss: %v → %v", first, last)
	}
}

func TestGlobalBeatsLocalOnDenseGraphs(t *testing.T) {
	// Section 8.4: for dense enough graphs (d ∈ ω(√p)), the global
	// formulation must move less data per rank than the local one. The
	// advantage materializes once √p exceeds the global engine's constant
	// factor, so run at p = 64 with average degree ≫ √p = 8.
	n := 256
	p := 64
	a := graph.ErdosRenyi(n, 25*n/2, 11) // avg degree ≈ 25 > √p
	cfg := testCfg(gnn.GCN, 2, 8, 8, 8)
	h := testFeatures(n, 8)
	_, csG := runGlobal(t, p, a, cfg, h, false)
	csL := dist.Run(p, func(c *dist.Comm) {
		e, err := NewLocalEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		e.Forward(h.SliceRows(e.Lo, e.Hi).Clone())
	})
	vg := dist.MaxCounters(csG).BytesSent
	vl := dist.MaxCounters(csL).BytesSent
	if vg >= vl {
		t.Fatalf("global (%d B) should beat local (%d B) on dense graphs at p=%d", vg, vl, p)
	}
}

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

// gridModels is the model axis of the grid ≡ single-node tables: the four
// kinds and multi-head GAT.
func gridModels(layers, in, hid, out int) map[string]gnn.Config {
	ms := map[string]gnn.Config{}
	for _, kind := range []gnn.Kind{gnn.VA, gnn.AGNN, gnn.GAT, gnn.GCN} {
		ms[kind.String()] = testCfg(kind, layers, in, hid, out)
	}
	mh := testCfg(gnn.GAT, layers, in, hid, out)
	mh.Heads = 2
	ms["GAT-2heads"] = mh
	return ms
}

// sameBits reports whether two matrices hold the same float64 bit patterns.
func sameBits(a, b *tensor.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestGlobalEngineMatchesSingleNode: validation strategy #3 — the
// distributed 1.5D engine must reproduce the shared-memory global
// formulation for every model and several grid sizes, including ragged
// (padded) block decompositions. On a 1×1 grid the collectives are
// identities and the lowered plan is the single-node plan: there the
// outputs must be equal bit for bit, at both element widths.
func TestGlobalEngineMatchesSingleNode(t *testing.T) {
	a := graph.ErdosRenyi(30, 90, 3) // n = 30: ragged for s = 2 (b=15), s=3 (b=10), s=4 (b=8, padded)
	h := testFeatures(30, 5)
	for name, cfg := range gridModels(3, 5, 6, 4) {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			cfg.DType = dt
			sm, err := gnn.New(cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			want := sm.Forward(h, false)
			ps := []int{1, 4, 9, 16}
			if dt == tensor.F32 {
				ps = ps[:1] // p > 1 at f32: TestRowEngineF32MatchesSingleNode
			}
			for _, p := range ps {
				got, _ := runGlobal(t, p, a, cfg, h, false)
				if got == nil {
					t.Fatalf("%s %s p=%d: no gathered output", name, dt, p)
				}
				if p == 1 && !sameBits(got, want) {
					t.Fatalf("%s %s: a 1×1 grid differs from single-node by %g, want the same bits",
						name, dt, got.MaxAbsDiff(want))
				}
				if d := got.MaxRelDiff(want); d > 1e-9 {
					t.Fatalf("%s %s p=%d: distributed differs from single-node by %g of the largest output",
						name, dt, p, d)
				}
			}
			sm.ReleasePlans()
		}
	}
}

func TestGlobalEngineTrainingForwardMode(t *testing.T) {
	// Training-mode forward must equal inference-mode forward.
	a := graph.ErdosRenyi(24, 70, 4)
	cfg := testCfg(gnn.AGNN, 2, 4, 4, 3)
	h := testFeatures(24, 4)
	inf, _ := runGlobal(t, 4, a, cfg, h, false)
	tr, _ := runGlobal(t, 4, a, cfg, h, true)
	if !inf.ApproxEqual(tr, 1e-10) {
		t.Fatal("training-mode forward differs from inference")
	}
}

// TestGlobalEngineTrainingMatchesSingleNode compares full training
// trajectories: distributed loss values and post-training outputs must
// match the single-node model up to float reassociation — and on a 1×1
// grid, where nothing is reassociated, losses, outputs and final parameters
// must be the single-node bits at both element widths.
func TestGlobalEngineTrainingMatchesSingleNode(t *testing.T) {
	a := graph.ErdosRenyi(24, 72, 5)
	n := 24
	h := testFeatures(n, 4)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 3
	}
	const steps = 4
	for name, cfg := range gridModels(2, 4, 5, 3) {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			cfg.DType = dt
			// Single-node reference.
			single, err := gnn.New(cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			wantLosses, err := single.Train(h, &gnn.CrossEntropyLoss{Labels: labels}, gnn.NewSGD(0.05, 0), steps)
			if err != nil {
				t.Fatal(err)
			}
			wantOut := single.Forward(h, false)

			ps := []int{1, 4}
			if dt == tensor.F32 {
				ps = ps[:1]
			}
			for _, p := range ps {
				var gotLosses []float64
				var gotOut *tensor.Dense
				var gotParams []*gnn.Param
				var mu sync.Mutex
				dist.Run(p, func(c *dist.Comm) {
					e, err := NewGlobalEngine(c, a, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					defer e.Close()
					opt := gnn.NewSGD(0.05, 0)
					xd := e.SliceOwnedBlock(h)
					var losses []float64
					for s := 0; s < steps; s++ {
						losses = append(losses, e.TrainStep(xd, labels, nil, opt))
					}
					out := e.Forward(xd, false)
					full := e.GatherOutput(out, cfg.OutDim)
					if c.Rank() == 0 {
						mu.Lock()
						gotLosses, gotOut, gotParams = losses, full, e.Params()
						mu.Unlock()
					}
				})
				if p == 1 {
					for s := range wantLosses {
						if math.Float64bits(gotLosses[s]) != math.Float64bits(wantLosses[s]) {
							t.Fatalf("%s %s 1×1: loss[%d] = %v, single-node %v, want the same bits", name, dt, s, gotLosses[s], wantLosses[s])
						}
					}
					if !sameBits(gotOut, wantOut) {
						t.Fatalf("%s %s 1×1: post-training outputs differ by %g, want the same bits", name, dt, gotOut.MaxAbsDiff(wantOut))
					}
					for i, wp := range single.Params() {
						if gp := gotParams[i]; gp.Name != wp.Name || !sameBits(gp.Value, wp.Value) {
							t.Fatalf("%s %s 1×1: parameter %d (%s) differs from single-node %s", name, dt, i, gp.Name, wp.Name)
						}
					}
				}
				for s := range wantLosses {
					if math.Abs(gotLosses[s]-wantLosses[s]) > 1e-9*(1+math.Abs(wantLosses[s])) {
						t.Fatalf("%s %s p=%d: loss[%d] = %v, single-node %v", name, dt, p, s, gotLosses[s], wantLosses[s])
					}
				}
				if gotOut.MaxAbsDiff(wantOut) > 1e-7*(1+wantOut.FrobeniusNorm()) {
					t.Fatalf("%s %s p=%d: post-training outputs differ by %g", name, dt, p, gotOut.MaxAbsDiff(wantOut))
				}
			}
			single.ReleasePlans()
		}
	}
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

func TestLocalEngineMatchesSingleNode(t *testing.T) {
	a := graph.ErdosRenyi(26, 80, 8) // 26 not divisible by 4: ragged 1D parts
	h := testFeatures(26, 4)
	for _, kind := range []gnn.Kind{gnn.VA, gnn.AGNN, gnn.GAT, gnn.GCN} {
		cfg := testCfg(kind, 2, 4, 5, 3)
		single, err := gnn.New(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		want := single.Forward(h, false)
		for _, p := range []int{1, 3, 4} {
			var got *tensor.Dense
			var mu sync.Mutex
			dist.Run(p, func(c *dist.Comm) {
				e, err := NewLocalEngine(c, a, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				hOwned := h.SliceRows(e.Lo, e.Hi).Clone()
				out := e.Forward(hOwned)
				full := e.GatherOutput(out)
				if full != nil {
					mu.Lock()
					got = full
					mu.Unlock()
				}
			})
			if !got.ApproxEqual(want, 1e-9) {
				t.Fatalf("%v p=%d: local engine differs by %g", kind, p, got.MaxAbsDiff(want))
			}
		}
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

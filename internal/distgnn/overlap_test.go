package distgnn

import (
	"sync"
	"testing"

	"agnn/internal/dist"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// runRowEngine executes a full RowEngine inference on p simulated ranks and
// returns the rank-0-gathered output.
func runRowEngine(t *testing.T, p int, a *sparse.CSR, cfg gnn.Config, h *tensor.Dense, overlap bool) *tensor.Dense {
	t.Helper()
	var got *tensor.Dense
	var mu sync.Mutex
	dist.Run(p, func(c *dist.Comm) {
		e, err := NewRowEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if overlap {
			if err := e.EnableOverlap(); err != nil {
				t.Error(err)
				return
			}
			if !e.Overlapped() {
				t.Error("EnableOverlap did not activate at p > 1")
				return
			}
		}
		out, err := e.Forward(h.SliceRows(e.Lo, e.Hi).Clone())
		if err != nil {
			t.Error(err)
			return
		}
		if full := e.GatherOutput(out); full != nil {
			mu.Lock()
			got = full
			mu.Unlock()
		}
	})
	return got
}

// TestRowEngineOverlapBitwiseIdentical is the tentpole differential test:
// overlapped Forward must produce bit-for-bit the sequential path's output
// on Kronecker and Erdős–Rényi graphs at p ∈ {4, 16}, for every model.
func TestRowEngineOverlapBitwiseIdentical(t *testing.T) {
	graphs := map[string]*sparse.CSR{
		"kronecker":   graph.Kronecker(6, 8, 61), // 64 vertices, ~512 edges
		"erdos-renyi": graph.ErdosRenyi(64, 480, 62),
	}
	h := testFeatures(64, 5)
	for name, a := range graphs {
		for _, kind := range []gnn.Kind{gnn.VA, gnn.AGNN, gnn.GAT, gnn.GCN} {
			cfg := testCfg(kind, 2, 5, 6, 3)
			for _, p := range []int{4, 16} {
				want := runRowEngine(t, p, a, cfg, h, false)
				got := runRowEngine(t, p, a, cfg, h, true)
				if want == nil || got == nil {
					t.Fatalf("%s %v p=%d: missing gathered output", name, kind, p)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%s %v p=%d: overlapped output differs at word %d: %v vs %v",
							name, kind, p, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestRowEngineOverlapMetrics checks the overlap instrumentation: a
// sequential run touches none of it (exactly 0 s hidden, local fraction
// left alone), an overlapped one advances the chunk counter by exactly
// ranks×layers×chunks and hides some communication behind its fragments.
func TestRowEngineOverlapMetrics(t *testing.T) {
	a := graph.Kronecker(6, 8, 63)
	h := testFeatures(64, 5)
	cfg := testCfg(gnn.VA, 2, 5, 6, 3)
	const p = 4

	chunks0 := metrics.OverlapChunksTotal.Value()
	hidden0 := metrics.OverlapHiddenSeconds.Value()
	metrics.OverlapLocalFraction.Set(-1) // a value no run writes
	runRowEngine(t, p, a, cfg, h, false)
	if d := metrics.OverlapHiddenSeconds.Value() - hidden0; d != 0 {
		t.Errorf("sequential run hid %v s of communication, want exactly 0", d)
	}
	if d := metrics.OverlapChunksTotal.Value() - chunks0; d != 0 {
		t.Errorf("sequential run counted %d overlap chunks", d)
	}
	if lf := metrics.OverlapLocalFraction.Value(); lf != -1 {
		t.Errorf("sequential run set the local fraction gauge to %v", lf)
	}

	runRowEngine(t, p, a, cfg, h, true)
	wantChunks := int64(p * cfg.Layers * p) // per rank, per layer, p chunks
	if d := metrics.OverlapChunksTotal.Value() - chunks0; d != wantChunks {
		t.Errorf("overlap chunk counter advanced by %d, want %d", d, wantChunks)
	}
	if d := metrics.OverlapHiddenSeconds.Value() - hidden0; d <= 0 {
		t.Errorf("overlapped run hid %v s of communication, want > 0", d)
	}
	if lf := metrics.OverlapLocalFraction.Value(); lf < 0 || lf > 1 {
		t.Errorf("local fraction gauge %v out of [0,1]", lf)
	}
}

// TestRowEngineOverlapSingleRankNoop: at p=1 there is nothing to hide and
// EnableOverlap must leave the engine on the sequential path.
func TestRowEngineOverlapSingleRankNoop(t *testing.T) {
	a := graph.ErdosRenyi(20, 60, 64)
	h := testFeatures(20, 4)
	cfg := testCfg(gnn.GCN, 2, 4, 5, 3)
	dist.Run(1, func(c *dist.Comm) {
		e, err := NewRowEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := e.EnableOverlap(); err != nil {
			t.Error(err)
			return
		}
		if e.Overlapped() {
			t.Error("overlap should stay off at p=1")
		}
		if _, err := e.Forward(h.Clone()); err != nil {
			t.Error(err)
		}
	})
}

package distgnn

import (
	"testing"

	"agnn/internal/dist"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/tensor"
)

// TestRowGridF32HalvesWireVolume: the p×1 grid's packed float32 gathers
// must move half the bytes of the f64 wire — the network-side twin of the
// kernels' traffic halving.
func TestRowGridF32HalvesWireVolume(t *testing.T) {
	n, k := 128, 8
	a := graph.ErdosRenyi(n, 4*n, 55)
	vol := func(dt tensor.DType) int64 {
		cfg := testCfg(gnn.GAT, 2, k, k, k)
		cfg.DType = dt
		cs := dist.Run(4, func(c *dist.Comm) {
			e, err := NewRowGrid(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			e.Forward(e.SliceOwnedBlock(testFeatures(n, k)), false)
		})
		return dist.MaxCounters(cs).BytesSent
	}
	v64, v32 := vol(tensor.F64), vol(tensor.F32)
	ratio := float64(v32) / float64(v64)
	if ratio > 0.55 {
		t.Fatalf("f32 wire moved %d of %d f64 bytes (%.2fx), want ~0.5x", v32, v64, ratio)
	}
}

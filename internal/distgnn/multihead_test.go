package distgnn

import (
	"testing"

	"agnn/internal/dist"
	"agnn/internal/gnn"
	"agnn/internal/graph"
)

// TestMultiHeadVolumeScalesWithHeads: K heads move ≈K× the single-head
// feature volume.
func TestMultiHeadVolumeScalesWithHeads(t *testing.T) {
	a := graph.ErdosRenyi(64, 300, 72)
	h := testFeatures(64, 8)
	vol := func(heads int) int64 {
		cfg := gnn.Config{Model: gnn.GAT, Layers: 2, InDim: 8, HiddenDim: 8,
			OutDim: 8, Heads: heads, Activation: gnn.Tanh(), SelfLoops: true, Seed: 73}
		cs := dist.Run(4, func(c *dist.Comm) {
			e, err := NewGlobalEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			e.Forward(e.SliceOwnedBlock(h), false)
		})
		return dist.MaxCounters(cs).BytesSent
	}
	v1, v4 := vol(1), vol(4)
	ratio := float64(v4) / float64(v1)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("4-head volume / 1-head volume = %.2f, want ≈4", ratio)
	}
}

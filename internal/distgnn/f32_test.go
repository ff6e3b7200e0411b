package distgnn

import (
	"math"
	"testing"

	"agnn/internal/dist"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/tensor"
)

func TestPackWords32RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 33} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Sin(float64(i)*1.3) * math.Pow(10, float64(i%7-3))
		}
		words := packWords32(xs)
		if want := (n + 1) / 2; len(words) != want {
			t.Fatalf("n=%d: packed into %d words, want %d", n, len(words), want)
		}
		dst := make([]float64, n)
		unpackWords32(dst, words)
		for i, v := range xs {
			if dst[i] != float64(float32(v)) {
				t.Fatalf("n=%d elem %d: %v round-tripped to %v, want the f32 rounding", n, i, v, dst[i])
			}
		}
	}
	// NaN payloads must survive the pack bitwise (the gathered words can be
	// NaN floats when the two packed f32 halves form a NaN bit pattern).
	xs := []float64{math.NaN(), 1.5, -math.Inf(1)}
	dst := make([]float64, 3)
	unpackWords32(dst, packWords32(xs))
	if !math.IsNaN(dst[0]) || dst[1] != 1.5 || !math.IsInf(dst[2], -1) {
		t.Fatalf("special values corrupted: %v", dst)
	}
}

// TestRowEngineF32HalvesWireVolume: the packed float32 allgather must move
// half the bytes of the f64 wire — the network-side twin of the kernels'
// traffic halving.
func TestRowEngineF32HalvesWireVolume(t *testing.T) {
	n, k := 128, 8
	a := graph.ErdosRenyi(n, 4*n, 55)
	vol := func(dt tensor.DType) int64 {
		cfg := testCfg(gnn.GAT, 2, k, k, k)
		cfg.DType = dt
		cs := dist.Run(4, func(c *dist.Comm) {
			e, err := NewRowEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			e.Forward(testFeatures(n, k).SliceRows(e.Lo, e.Hi).Clone())
		})
		return dist.MaxCounters(cs).BytesSent
	}
	v64, v32 := vol(tensor.F64), vol(tensor.F32)
	ratio := float64(v32) / float64(v64)
	if ratio > 0.55 {
		t.Fatalf("f32 wire moved %d of %d f64 bytes (%.2fx), want ~0.5x", v32, v64, ratio)
	}
}

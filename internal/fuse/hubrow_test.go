package fuse_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// TestHubRowSoftmaxF32 is the numerical guard for float32 attention on a hub
// row: ~10 000 scores go through one float32 max / exp / sum / normalize and
// one float32 aggregation, which is where a narrow accumulator would show.
//
// The graph has two hub rows and one short row. Feature column 0 is 1 on
// every vertex with features and W maps it to output column 0 unchanged, so
// with the identity activation output[i][0] is the sum of row i's attention
// weights over its neighbours that have features. Row 0 (clean hub) has
// only such neighbours: its weights must sum to 1. Row 1 (mixed hub) also
// has neighbours whose feature row is all zero — zero norm, the AGNN guard —
// and must stay finite and close to float64. Row 2 has only zero-feature
// neighbours: whatever their weights, they aggregate rows of zeros, so its
// output must be exactly zero rather than NaN from a 0/0 cosine.
func TestHubRowSoftmaxF32(t *testing.T) {
	const (
		n, k   = 12000, 8
		hubDeg = 10000
		nZero  = 64
	)
	rng := rand.New(rand.NewSource(150))

	coo := sparse.NewCOO(n, n, 2*hubDeg+4*n)
	for j := 3; j < 3+hubDeg; j++ {
		coo.Append(0, int32(j))
		coo.Append(1, int32(j))
	}
	for v := n - nZero; v < n; v++ {
		coo.Append(1, int32(v))
		coo.Append(2, int32(v))
	}
	for i := 3; i < n; i++ {
		coo.Append(int32(i), int32(i))
		for d := 0; d < 3; d++ {
			coo.Append(int32(i), int32(rng.Intn(n-nZero)))
		}
	}
	a := sparse.FromCOO(coo)
	if a.MaxRowNNZ() < hubDeg {
		t.Fatalf("hub row has %d entries, want >= %d", a.MaxRowNNZ(), hubDeg)
	}

	h := randDense(rng, n, k)
	for v := 0; v < n; v++ {
		h.Set(v, 0, 1)
		if v >= n-nZero {
			clear(h.Row(v))
		}
	}
	w := randParam(rng, "W", k, k)
	for c := 0; c < k; c++ {
		w.Value.Set(c, 0, 0)
		w.Value.Set(0, c, 0)
	}
	w.Value.Set(0, 0, 1)
	beta := randParam(rng, "beta", 1, 1)
	a1, a2 := randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1)

	old := par.Workers()
	defer par.SetWorkers(old)
	for _, tc := range []struct {
		name  string
		build func() *fuse.Graph
	}{
		{"agnn", func() *fuse.Graph { return buildAGNNAct(a, w, beta, k, identityAct) }},
		{"gat", func() *fuse.Graph { return buildGATAct(a, w, a1, a2, k, 0.2, identityAct) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			par.SetWorkers(old)
			want := tc.build().MustCompile(fuse.Options{}).Forward(h)
			p := tc.build().MustCompile(fuse.Options{DType: tensor.F32})
			if p.Stats().AttnFused != 1 {
				t.Fatalf("plan is not attention-fused: %+v", p.Stats().OpCounts)
			}

			par.SetWorkers(1)
			serial := p.Forward(h).Clone()
			par.SetWorkers(runtime.NumCPU())
			got := p.Forward(h)
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(serial.Data[i]) {
					t.Fatalf("element %d: %v with %d workers, %v with 1", i, v, runtime.NumCPU(), serial.Data[i])
				}
			}

			if sum := got.At(0, 0); math.Abs(sum-1) > 1e-4 {
				t.Errorf("attention weights of the %d-entry hub row sum to %v, want 1 within 1e-4", a.RowNNZ(0), sum)
			}
			for _, v := range got.Row(1) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("hub row with zero-norm neighbours is not finite: %v", got.Row(1))
				}
			}
			for c, v := range got.Row(2) {
				if math.Float64bits(v) != 0 {
					t.Errorf("row of zero-feature neighbours: output[%d] = %v, want exactly +0", c, v)
				}
			}
			if d := maxRelDiff(got, want); d > 1e-5 {
				t.Errorf("f32 deviates from the f64 plan by %.3g relative, want <= 1e-5", d)
			}
		})
	}
}

// maxRelDiff is the elementwise relative deviation max |a-b| / (1+|b|),
// the metric the f32-vs-f64 differential tolerances are stated in.
func maxRelDiff(a, b *tensor.Dense) float64 {
	worst := 0.0
	for i := range a.Data {
		d := math.Abs(a.Data[i]-b.Data[i]) / (1 + math.Abs(b.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

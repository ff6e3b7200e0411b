package fuse_test

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/tensor"
)

// cloneParam deep-copies a ParamRef so two plans can accumulate gradients
// independently.
func cloneParam(p fuse.ParamRef) fuse.ParamRef {
	return fuse.ParamRef{Name: p.Name, Value: p.Value.Clone(), Grad: p.Grad.Clone()}
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

// TestPlanF32ForwardMatchesF64: the f32 compilation of each attention DAG
// must track the f64 plan within single-precision rounding — the mixed
// precision contract (f64 master weights, f32 kernels) changes memory
// traffic, not the math.
func TestPlanF32ForwardMatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	a := weightedGraph(40, 160, 91)
	const k = 5
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	a1 := randParam(rng, "a1", k, 1)
	a2 := randParam(rng, "a2", k, 1)
	h := randDense(rng, a.Rows, k)

	cases := []struct {
		name  string
		build func() *fuse.Graph
	}{
		{"va", func() *fuse.Graph { return buildVA(a, w, k) }},
		{"agnn", func() *fuse.Graph { return buildAGNN(a, w, beta, k) }},
		{"gat", func() *fuse.Graph { return buildGAT(a, w, a1, a2, k, 0.2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.build().MustCompile(fuse.Options{}).Forward(h)
			got := tc.build().MustCompile(fuse.Options{DType: tensor.F32}).Forward(h)
			if d := maxRelDiff(got, want); d > 1e-5 {
				t.Fatalf("f32 forward deviates from f64 by %.3g relative, want <= 1e-5", d)
			}
		})
	}
}

// TestPlanF32BackwardGradsMatchF64: the reverse-derived f32 op list flushes
// its gradients into the f64 accumulators; they must agree with the f64
// plan's gradients to a few f32 rounding steps.
func TestPlanF32BackwardGradsMatchF64(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	a := weightedGraph(40, 160, 93)
	const k = 4
	w64 := randParam(rng, "W", k, k)
	beta64 := randParam(rng, "beta", 1, 1)
	w32, beta32 := cloneParam(w64), cloneParam(beta64)
	h := randDense(rng, a.Rows, k)
	gOut := randDense(rng, a.Rows, k)

	p64 := buildAGNN(a, w64, beta64, k).MustCompile(fuse.Options{Train: true})
	p64.Forward(h)
	in64 := p64.Backward(gOut)

	p32 := buildAGNN(a, w32, beta32, k).MustCompile(fuse.Options{Train: true, DType: tensor.F32})
	p32.Forward(h)
	in32 := p32.Backward(gOut)

	const tol = 1e-3
	if d := maxRelDiff(in32, in64); d > tol {
		t.Errorf("input cotangent deviates by %.3g relative, want <= %g", d, tol)
	}
	if d := maxRelDiff(w32.Grad, w64.Grad); d > tol {
		t.Errorf("W grad deviates by %.3g relative, want <= %g", d, tol)
	}
	if d := maxRelDiff(beta32.Grad, beta64.Grad); d > tol {
		t.Errorf("beta grad deviates by %.3g relative, want <= %g", d, tol)
	}
}

// TestAttnFusedBitwiseIdenticalF64: the fused SDDMM+softmax+SpMM sweep must
// reproduce the unfused opSample→opSoftmax→opSpMM sequence bit for bit, in
// both the training shape (scores written to the value buffer mid-sweep)
// and the inference shape (scores confined to per-worker scratch) — at
// float64 (the rows that gave the test its name) and at float32.
func TestAttnFusedBitwiseIdenticalF64(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	a := weightedGraph(48, 200, 97)
	const k = 5
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	a1 := randParam(rng, "a1", k, 1)
	a2 := randParam(rng, "a2", k, 1)
	h := randDense(rng, a.Rows, k)
	gOut := randDense(rng, a.Rows, k)

	cases := []struct {
		name  string
		build func(w fuse.ParamRef) *fuse.Graph
	}{
		{"va", func(wp fuse.ParamRef) *fuse.Graph { return buildVA(a, wp, k) }},
		{"agnn", func(wp fuse.ParamRef) *fuse.Graph { return buildAGNN(a, wp, beta, k) }},
		{"gat", func(wp fuse.ParamRef) *fuse.Graph { return buildGAT(a, wp, a1, a2, k, 0.2) }},
	}
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, tc := range cases {
			name := tc.name
			if dt != tensor.F64 {
				name = dt.String() + "/" + name
			}
			t.Run(name+"/inference", func(t *testing.T) {
				fused := tc.build(w).MustCompile(fuse.Options{DType: dt})
				unfused := tc.build(w).MustCompile(fuse.Options{DType: dt, NoAttnFuse: true})
				if fused.Stats().AttnFused == 0 {
					t.Fatal("default compile did not fuse the attention chain")
				}
				if unfused.Stats().AttnFused != 0 {
					t.Fatal("NoAttnFuse plan still reports fused chains")
				}
				if d := fused.Forward(h).MaxAbsDiff(unfused.Forward(h)); d != 0 {
					t.Fatalf("fused inference deviates by %g, want bitwise identity", d)
				}
			})
			t.Run(name+"/train", func(t *testing.T) {
				wf, wu := cloneParam(w), cloneParam(w)
				fused := tc.build(wf).MustCompile(fuse.Options{Train: true, DType: dt})
				unfused := tc.build(wu).MustCompile(fuse.Options{Train: true, DType: dt, NoAttnFuse: true})
				if d := fused.Forward(h).MaxAbsDiff(unfused.Forward(h)); d != 0 {
					t.Fatalf("fused training forward deviates by %g, want bitwise identity", d)
				}
				if d := fused.Backward(gOut).MaxAbsDiff(unfused.Backward(gOut)); d != 0 {
					t.Fatalf("fused backward input grad deviates by %g, want bitwise identity", d)
				}
				if d := wf.Grad.MaxAbsDiff(wu.Grad); d != 0 {
					t.Fatalf("fused backward W grad deviates by %g, want bitwise identity", d)
				}
			})
		}
	}
}

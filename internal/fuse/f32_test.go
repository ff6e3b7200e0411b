package fuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/par"
	"agnn/internal/sparse"
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

// TestAttnFusedBitwiseIdenticalF64: the fused attention ops must reproduce
// the per-op sequence NoAttnFuse compiles bit for bit. Forward, the
// SDDMM+softmax+SpMM sweep against opSample→opSoftmax→opSpMM, in both the
// training shape (scores written to the value buffer mid-sweep) and the
// inference shape (scores confined to per-worker scratch); backward, GAT's
// two-sweep VJP chain against the per-op VJPs — the input cotangent and every
// parameter gradient, per head of a two-head layer and under a weighted mask.
// At float64 (the rows that gave the test its name) and at float32, at one
// worker and at three ("w3/"), on a graph above par's inline threshold.
func TestAttnFusedBitwiseIdenticalF64(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)
	rng := rand.New(rand.NewSource(96))
	a := weightedGraph(300, 1500, 97)
	const k = 5
	ps := paramSet{}
	for _, name := range []string{"W", "W.h1"} {
		ps[name] = randParam(rng, name, k, k)
	}
	for _, name := range []string{"a1", "a2", "a1.h1", "a2.h1"} {
		ps[name] = randParam(rng, name, k, 1)
	}
	ps["beta"] = randParam(rng, "beta", 1, 1)
	h := randDense(rng, a.Rows, k)
	gOut := randDense(rng, a.Rows, k)
	holes, wide := withEmptyRows(a), spreadWeights(a)

	cases := []struct {
		name  string
		build func(ps paramSet) *fuse.Graph
	}{
		{"va", func(ps paramSet) *fuse.Graph { return buildVA(a, ps["W"], k) }},
		{"agnn", func(ps paramSet) *fuse.Graph { return buildAGNN(a, ps["W"], ps["beta"], k) }},
		{"gat", func(ps paramSet) *fuse.Graph { return buildGAT(a, ps["W"], ps["a1"], ps["a2"], k, 0.2) }},
		{"gat-2-heads", func(ps paramSet) *fuse.Graph { return buildGATHeads(a, ps, 2, k, false) }},
		{"gat-weighted", func(ps paramSet) *fuse.Graph { return buildGATHeads(a, ps, 1, k, true) }},
		// The recomputed Ψ at its edges: rows and columns with no entries
		// (no self-loops), and rows whose weighted scores spread so far that
		// exp(s − m) turns subnormal or zero — at float64 the lanes that
		// take math.Exp's special cases, at float32 exp32's flush to 0.
		{"gat-empty-rows", func(ps paramSet) *fuse.Graph { return buildGAT(holes, ps["W"], ps["a1"], ps["a2"], k, 0.2) }},
		{"gat-underflow", func(ps paramSet) *fuse.Graph { return buildGATHeads(wide, ps, 1, k, true) }},
	}
	for _, workers := range []int{1, 3} {
		par.SetWorkers(workers)
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, tc := range cases {
				name := tc.name
				if dt != tensor.F64 {
					name = dt.String() + "/" + name
				}
				if workers != 1 {
					name = fmt.Sprintf("w%d/%s", workers, name)
				}
				t.Run(name+"/inference", func(t *testing.T) {
					fused := tc.build(ps).MustCompile(fuse.Options{DType: dt})
					unfused := tc.build(ps).MustCompile(fuse.Options{DType: dt, NoAttnFuse: true})
					if fused.Stats().AttnFused == 0 {
						t.Fatal("default compile did not fuse the attention chain")
					}
					if unfused.Stats().AttnFused != 0 {
						t.Fatal("NoAttnFuse plan still reports fused chains")
					}
					if i := firstBitDiff(fused.Forward(h).Data, unfused.Forward(h).Data); i >= 0 {
						t.Fatalf("fused inference deviates at word %d, want bitwise identity", i)
					}
				})
				t.Run(name+"/train", func(t *testing.T) {
					pf, pu := ps.clone(), ps.clone()
					fused := tc.build(pf).MustCompile(fuse.Options{Train: true, DType: dt})
					unfused := tc.build(pu).MustCompile(fuse.Options{Train: true, DType: dt, NoAttnFuse: true})
					if i := firstBitDiff(fused.Forward(h).Data, unfused.Forward(h).Data); i >= 0 {
						t.Fatalf("fused training forward deviates at word %d, want bitwise identity", i)
					}
					if i := firstBitDiff(fused.Backward(gOut).Data, unfused.Backward(gOut).Data); i >= 0 {
						t.Fatalf("fused backward input grad deviates at word %d, want bitwise identity", i)
					}
					for p, ref := range pf {
						if i := firstBitDiff(ref.Grad.Data, pu[p].Grad.Data); i >= 0 {
							t.Fatalf("fused backward %s grad deviates at word %d, want bitwise identity", p, i)
						}
					}
				})
			}
		}
	}
}

// withEmptyRows is a's pattern with every entry of every fifth row and of
// every seventh column dropped: empty rows of S and of Sᵀ, no self-loops.
func withEmptyRows(a *sparse.CSR) *sparse.CSR {
	coo := sparse.NewCOO(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.Col[p]; i%5 != 0 && j%7 != 0 && int(j) != i {
				coo.AppendVal(int32(i), j, a.Val[p])
			}
		}
	}
	return sparse.FromCOO(coo)
}

// spreadWeights is a with every third value scaled by 2000 and every fourth
// other one by −700: under a weighted mask a row's scores then spread by
// hundreds to thousands, so that exp(s − m) underflows on part of most rows.
func spreadWeights(a *sparse.CSR) *sparse.CSR {
	vals := slices.Clone(a.Val)
	for p := range vals {
		switch {
		case p%3 == 0:
			vals[p] *= 2000
		case p%4 == 0:
			vals[p] *= -700
		}
	}
	return a.WithValues(vals)
}

// paramSet names the parameters of the test graphs; clone gives a plan its
// own gradient accumulators.
type paramSet map[string]fuse.ParamRef

func (ps paramSet) clone() paramSet {
	c := make(paramSet, len(ps))
	for name, p := range ps {
		c[name] = cloneParam(p)
	}
	return c
}

// buildGATHeads is buildGAT with heads attention heads — head h's parameters
// are W, a1, a2 suffixed ".h1" from the second on — whose outputs average as
// a final multi-head layer's do, over a mask that multiplies A's values in
// when weighted.
func buildGATHeads(a *sparse.CSR, ps paramSet, heads, k int, weighted bool) *fuse.Graph {
	g := fuse.NewGraph("gat", a)
	x := g.InputDense("H", a.Rows, k)
	outs := make([]*fuse.Node, heads)
	for h := range outs {
		sfx := ""
		if h > 0 {
			sfx = fmt.Sprintf(".h%d", h)
		}
		hp := g.MM("Hp"+sfx, x, g.ParamNode("W"+sfx, ps["W"+sfx]))
		u := g.MatVecNode("u"+sfx, hp, g.ParamNode("a1"+sfx, ps["a1"+sfx]))
		v := g.MatVecNode("v"+sfx, hp, g.ParamNode("a2"+sfx, ps["a2"+sfx]))
		c := g.AddScores("C"+sfx, g.RepRow("u1T"+sfx, u), g.RepCol("1vT"+sfx, v))
		psi := g.Softmax("Psi"+sfx, g.Mask("E"+sfx, g.LReLUScores("lreluC"+sfx, c, 0.2), weighted))
		outs[h] = g.Sigma("Hout"+sfx, g.SpMM("Z"+sfx, psi, hp), tanhAct)
	}
	g.SetOutput(g.Mean("mean", outs...))
	return g
}

package fuse_test

import (
	"math/rand"
	"reflect"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The Figure 5 fusion claims, checked on the graphs the layers build for
// themselves (DAGLayer.DAG) and on the training plans compiled from them:
// the Section 6.2 analysis groups, the forward op list the groups collapse
// into, and the backward op list the compiler derives.

const fusionN, fusionK = 200, 4

// fusionGraph is a sparse graph on which a materialized n×n matrix would
// dwarf every buffer a plan legitimately holds.
func fusionGraph() *sparse.CSR { return graph.ErdosRenyi(fusionN, 3*fusionN, 3) }

// layerFusion runs Analyze on the layer's own DAG and compiles its training
// plan through a training-mode forward.
func layerFusion(t *testing.T, l gnn.DAGLayer, a *sparse.CSR) ([]fuse.Group, *fuse.Plan) {
	t.Helper()
	g := fuse.NewGraph(l.Name(), a)
	l.DAG(g, g.InputDense("H", a.Rows, fusionK))
	groups := fuse.Analyze(g.DAG())
	l.Forward(tensor.RandN(a.Rows, fusionK, 1, rand.New(rand.NewSource(5))), true)
	p := l.(interface{ Plan() *fuse.Plan }).Plan()
	if words := p.Stats().WorkspaceWords; words >= fusionN*fusionN {
		t.Errorf("%s: the training plan holds %d words, as many as an n×n matrix", l.Name(), words)
	}
	return groups, p
}

func groupStrings(gs []fuse.Group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.String()
	}
	return out
}

func TestVAForwardFusion(t *testing.T) {
	// The only virtual tensor is H·Hᵀ; it fuses into the adjacency mask (the
	// SDDMM), and the sample, the aggregation Ψ·H and nothing between them is
	// one sweep.
	a := fusionGraph()
	gs, p := layerFusion(t, gnn.NewVALayer(a, fusionK, fusionK, gnn.Tanh(), rand.New(rand.NewSource(1))), a)
	if got := groupStrings(gs); !reflect.DeepEqual(got, []string{"HHt -> Psi"}) {
		t.Fatalf("VA fusion = %v", got)
	}
	st := p.Stats()
	if st.ForwardOps != 3 || st.AttnFused != 1 || st.OpCounts["fused-attn"] != 1 {
		t.Fatalf("VA forward: %d ops %v, %d fused attention sweeps; want fused-attn, mm, sigma", st.ForwardOps, st.OpCounts, st.AttnFused)
	}
}

func TestAGNNForwardFusion(t *testing.T) {
	// H·Hᵀ, the n·nᵀ outer product, the division and the β scaling all fold
	// into the sparse mask, the softmax into its sampling sweep, and that
	// sweep into the aggregation: rownorm, fused attention, mm, sigma.
	a := fusionGraph()
	gs, p := layerFusion(t, gnn.NewAGNNLayer(a, fusionK, fusionK, gnn.Tanh(), rand.New(rand.NewSource(1))), a)
	if len(gs) != 1 {
		t.Fatalf("groups = %v", groupStrings(gs))
	}
	g := gs[0]
	if g.Sampler.ID != "S" || len(g.Virtual) != 4 {
		t.Fatalf("AGNN fusion = %q", g)
	}
	want := map[string]bool{"HHt": true, "nnT": true, "C": true, "betaC": true}
	for _, v := range g.Virtual {
		if !want[v.ID] {
			t.Fatalf("unexpected virtual member %q", v.ID)
		}
	}
	st := p.Stats()
	if st.ForwardOps != 4 || st.FusedVirtual != 4 || st.SoftmaxFused != 1 || st.AttnFused != 1 {
		t.Fatalf("AGNN forward: %d ops %v, fused (virtual, softmax, attention) = (%d, %d, %d); want 4 ops, (4, 1, 1)",
			st.ForwardOps, st.OpCounts, st.FusedVirtual, st.SoftmaxFused, st.AttnFused)
	}
}

func TestGATForwardFusion(t *testing.T) {
	// The two replications, the addition and the LeakyReLU fuse into the
	// mask: the projection, u and v, one fused attention sweep, sigma.
	a := fusionGraph()
	gs, p := layerFusion(t, gnn.NewGATLayer(a, fusionK, fusionK, gnn.Tanh(), 0.2, rand.New(rand.NewSource(1))), a)
	if len(gs) != 1 {
		t.Fatalf("groups = %v", groupStrings(gs))
	}
	if g := gs[0]; g.Sampler.ID != "E" || len(g.Virtual) != 4 {
		t.Fatalf("GAT fusion = %q", g)
	}
	st := p.Stats()
	if st.ForwardOps != 5 || st.OpCounts["matvec"] != 2 || st.AttnFused != 1 {
		t.Fatalf("GAT forward: %d ops %v, %d fused attention sweeps; want mm, matvec×2, fused-attn, sigma",
			st.ForwardOps, st.OpCounts, st.AttnFused)
	}
}

// TestBackwardDAGFusions: the backward pass the compiler derives keeps every
// virtual matrix virtual. Each sparse or virtual node's VJP is one sweep over
// the pattern, and the plan holds no n×n buffer (layerFusion). VA (Eq. 11–13):
// the aggregation's VJP samples M·Hᵀ on the pattern (N), and H·Hᵀ's turns N
// into N₊·H. GAT, per op (NoAttnFuse, the reference): the aggregation's VJP
// samples G·Hpᵀ (Ψ̄), and LeakyReLU′ re-evaluates C = u·1ᵀ + 1·vᵀ per
// non-zero, whose row and column sums are ū and v̄; the unweighted mask and
// the sum C pass their cotangent through. By default that chain, from Ψ̄ to ū
// and v̄, is the fused attention op's two sweeps, once per head.
func TestBackwardDAGFusions(t *testing.T) {
	a := fusionGraph()
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		l     gnn.DAGLayer
		perOp bool // compile the layer's DAG with NoAttnFuse
		want  []string
	}{
		{gnn.NewVALayer(a, fusionK, fusionK, gnn.Tanh(), rng), false,
			[]string{"va.Hout.bwd sigma", "va.Z.bwd mm", "va.PsiH.bwd spmm", "va.HHt.bwd mmt"}},
		{gnn.NewAGNNLayer(a, fusionK, fusionK, gnn.Tanh(), rng), false,
			[]string{"agnn.Hout.bwd sigma", "agnn.Z.bwd mm", "agnn.PsiH.bwd spmm", "agnn.Psi.bwd softmax",
				"agnn.betaC.bwd scale", "agnn.C.bwd divide", "agnn.nnT.bwd outer", "agnn.HHt.bwd mmt", "agnn.n.bwd rownorm"}},
		{gnn.NewGATLayer(a, fusionK, fusionK, gnn.Tanh(), 0.2, rng), true,
			[]string{"gat.Hout.bwd sigma", "gat.Z.bwd spmm", "gat.Psi.bwd softmax", "gat.lreluC.bwd lrelu",
				"gat.1vT.bwd repT", "gat.u1T.bwd rep", "gat.v.bwd matvec", "gat.u.bwd matvec", "gat.Hp.bwd mm"}},
		{gnn.NewGATLayer(a, fusionK, fusionK, gnn.Tanh(), 0.2, rng), false,
			[]string{"gat.Hout.bwd sigma", "gat.Z.bwd fused-attn", "gat.v.bwd matvec", "gat.u.bwd matvec", "gat.Hp.bwd mm"}},
		{gnn.NewMultiHeadGATLayer(a, fusionK, fusionK, 2, false, gnn.Tanh(), 0.2, rng), false,
			[]string{"gat-multihead.Hout.bwd mean",
				"gat-multihead.Hout.h1.bwd sigma", "gat-multihead.Z.h1.bwd fused-attn", "gat-multihead.v.h1.bwd matvec",
				"gat-multihead.u.h1.bwd matvec", "gat-multihead.Hp.h1.bwd mm",
				"gat-multihead.Hout.h0.bwd sigma", "gat-multihead.Z.h0.bwd fused-attn", "gat-multihead.v.h0.bwd matvec",
				"gat-multihead.u.h0.bwd matvec", "gat-multihead.Hp.h0.bwd mm"}},
	} {
		var p *fuse.Plan
		if tc.perOp {
			g := fuse.NewGraph(tc.l.Name(), a)
			tc.l.DAG(g, g.InputDense("H", a.Rows, fusionK))
			p = g.MustCompile(fuse.Options{Train: true, NoAttnFuse: true, SpanPrefix: tc.l.Name() + "."})
		} else {
			_, p = layerFusion(t, tc.l, a)
		}
		if got := fuse.BackwardOps(p); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s (per op: %v) backward ops:\n got %q\nwant %q", tc.l.Name(), tc.perOp, got, tc.want)
		}
	}
}

// TestMaskedMxMIsSDDMM: the paper's GraphBLAS claim (Section 9), on the op
// the plans run. The masked mxm A ⊙ (H·Hᵀ) — a mask over the virtual "mmt" —
// samples what sparse.SDDMM computes: aggregated through the same SpMM, the
// compiled result equals the kernels' bit for bit, with the sample fused into
// the aggregation sweep or standing alone.
func TestMaskedMxMIsSDDMM(t *testing.T) {
	a := weightedGraph(80, 320, 21)
	h := randDense(rand.New(rand.NewSource(22)), a.Rows, 6)
	psi := sparse.SDDMM(a, h, h)
	for p, w := range a.Val {
		psi.Val[p] *= w // the weighted mask's A ⊙ (H·Hᵀ)
	}
	want := tensor.NewDense(a.Rows, h.Cols)
	psi.MulDenseInto(want, h)
	for _, noFuse := range []bool{false, true} {
		g := fuse.NewGraph("mxm", a)
		x := g.InputDense("H", a.Rows, 6)
		g.SetOutput(g.SpMM("Z", g.Mask("Psi", g.DotScores("HHt", x, x), true), x))
		got := g.MustCompile(fuse.Options{NoAttnFuse: noFuse}).Forward(h)
		if i := firstBitDiff(got.Data, want.Data); i >= 0 {
			t.Fatalf("unfused=%v: word %d is %v, the SDDMM kernel's %v", noFuse, i, got.Data[i], want.Data[i])
		}
	}
}

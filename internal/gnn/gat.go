package gnn

import (
	"math/rand"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// GATLayer is the Graph Attention Network in the paper's global formulation
// (Figures 1 and 2):
//
//	Forward:   H' = H·W
//	           u  = H'·a₁,  v = H'·a₂          split of aᵀ[Wh_i ‖ Wh_j]
//	           C  = u·1ᵀ + 1·vᵀ                virtual n×n, never stored
//	           E  = A ⊙ LeakyReLU(C)           fused SDDMM-like kernel
//	           Ψ  = sm(E)
//	           Z  = Ψ·H'
//	           Hᵒ = σ(Z)
//
// ∂Ψ/∂W ≠ 0 — the second term of Eq. (7) is live for GAT: the derived
// backward routes the softmax VJP through the virtual C again into ū, v̄
// and from there into H', a₁ and a₂.
type GATLayer struct {
	planned
	GATHead
	Act      Activation
	NegSlope float64
}

// GATHead is the parameters of one attention head: the projection W and the
// two halves of the attention vector a.
type GATHead struct {
	W, A1, A2 *Param
}

// newGATHead draws one head's parameters — W, a₁, a₂, in that order — with
// the attention vector halves initialized with Glorot fan-in k.
func newGATHead(inDim, outDim int, rng *rand.Rand) GATHead {
	return GATHead{
		W:  NewParam("W", tensor.GlorotInit(inDim, outDim, rng)),
		A1: NewParam("a1", tensor.GlorotInit(outDim, 1, rng)),
		A2: NewParam("a2", tensor.GlorotInit(outDim, 1, rng)),
	}
}

// NewGATLayer constructs a single-head GAT layer.
func NewGATLayer(a *sparse.CSR, inDim, outDim int, act Activation, negSlope float64, rng *rand.Rand) *GATLayer {
	l := &GATLayer{GATHead: newGATHead(inDim, outDim, rng), Act: act, NegSlope: negSlope}
	l.params = []*Param{l.W, l.A1, l.A2}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *GATLayer) Name() string { return "gat" }

// attend appends the head's chain of the formulation above, from H' to
// σ(Z), to g and returns σ(Z). The virtual chain u·1ᵀ + 1·vᵀ → LeakyReLU
// fuses into the softmax sampling sweep. Node ids carry sfx: empty for the
// single-head layer, one per head otherwise.
func (hd GATHead) attend(g *fuse.Graph, h *fuse.Node, negSlope float64, act Activation, sfx string) *fuse.Node {
	wn := g.ParamNode("W"+sfx, planRef(hd.W))
	a1n := g.ParamNode("a1"+sfx, planRef(hd.A1))
	a2n := g.ParamNode("a2"+sfx, planRef(hd.A2))
	hp := g.MM("Hp"+sfx, h, wn)
	u := g.MatVecNode("u"+sfx, hp, a1n)
	v := g.MatVecNode("v"+sfx, hp, a2n)
	c := g.AddScores("C"+sfx, g.RepRow("u1T"+sfx, u), g.RepCol("1vT"+sfx, v))
	e := g.Mask("E"+sfx, g.LReLUScores("lreluC"+sfx, c, negSlope), false)
	psi := g.Softmax("Psi"+sfx, e)
	z := g.SpMM("Z"+sfx, psi, hp)
	return g.Sigma("Hout"+sfx, z, planAct(act))
}

// DAG implements DAGLayer.
func (l *GATLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	g.SetOutput(l.attend(g, h, l.NegSlope, l.Act, ""))
}

func (l *GATLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

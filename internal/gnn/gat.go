package gnn

import (
	"fmt"
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
	W        *Param
	A1, A2   *Param // the two halves of the attention vector a
	Act      Activation
	NegSlope float64
}

// NewGATLayer constructs a single-head GAT layer. The attention vector
// halves are initialized with Glorot fan-in k.
func NewGATLayer(a *sparse.CSR, inDim, outDim int, act Activation, negSlope float64, rng *rand.Rand) *GATLayer {
	l := &GATLayer{
		W:        NewParam("W", tensor.GlorotInit(inDim, outDim, rng)),
		A1:       NewParam("a1", tensor.GlorotInit(outDim, 1, rng)),
		A2:       NewParam("a2", tensor.GlorotInit(outDim, 1, rng)),
		Act:      act,
		NegSlope: negSlope,
	}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *GATLayer) Name() string { return "gat" }

// Params implements Layer.
func (l *GATLayer) Params() []*Param { return []*Param{l.W, l.A1, l.A2} }

// DAG implements DAGLayer. The virtual chain u·1ᵀ + 1·vᵀ → LeakyReLU fuses
// into the softmax sampling sweep.
func (l *GATLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	wn := g.ParamNode("W", planRef(l.W))
	a1n := g.ParamNode("a1", planRef(l.A1))
	a2n := g.ParamNode("a2", planRef(l.A2))
	hp := g.MM("Hp", h, wn)
	u := g.MatVecNode("u", hp, a1n)
	v := g.MatVecNode("v", hp, a2n)
	c := g.AddScores("C", g.RepRow("u1T", u), g.RepCol("1vT", v))
	e := g.Mask("E", g.LReLUScores("lreluC", c, l.NegSlope), false)
	psi := g.Softmax("Psi", e)
	z := g.SpMM("Z", psi, hp)
	g.SetOutput(g.Sigma("Hout", z, planAct(l.Act)))
}

// Signature implements DAGLayer.
func (l *GATLayer) Signature(train bool) string {
	return planSig(l, train, l.Act, fmt.Sprintf("slope=%g", l.NegSlope))
}

func (l *GATLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

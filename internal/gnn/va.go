package gnn

import (
	"math/rand"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// VALayer is the vanilla-attention model (Figure 1, "VA"):
//
//	Forward:   Ψ = A ⊙ (H·Hᵀ)            (SDDMM on the adjacency pattern)
//	           Z = Ψ·H·W                 (SpMMM; computed as (Ψ·H)·W)
//	           H' = σ(Z)
//
// Aggregating first makes the SpMM gather the rows of H the scores just read;
// a W that narrows keeps Ψ·(H·W) (aggregateProject). The backward pass of
// Eq. (11)–(13) is derived from this DAG by the plan compiler's reverse
// traversal: W̄ = (Ψ·H)ᵀ·Ḡ, and H̄ picks up Ψᵀ·(Ḡ·Wᵀ) beside the two score
// terms.
type VALayer struct {
	planned
	W   *Param
	Act Activation
}

// NewVALayer constructs a VA layer on adjacency a with Glorot-initialized
// weights.
func NewVALayer(a *sparse.CSR, inDim, outDim int, act Activation, rng *rand.Rand) *VALayer {
	l := &VALayer{W: NewParam("W", tensor.GlorotInit(inDim, outDim, rng)), Act: act}
	l.params = []*Param{l.W}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *VALayer) Name() string { return "va" }

// DAG implements DAGLayer: Ψ = A ⊙ (H·Hᵀ) fuses into a single SDDMM-like
// sampling kernel; in inference plans the whole chain through Z is one
// fused sweep and no Ψ value array exists.
func (l *VALayer) DAG(g *fuse.Graph, h *fuse.Node) {
	psi := g.Mask("Psi", g.DotScores("HHt", h, h), true)
	g.SetOutput(g.Sigma("Hout", aggregateProject(g, psi, h, l.W), planAct(l.Act)))
}

func (l *VALayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

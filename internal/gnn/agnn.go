package gnn

import (
	"math/rand"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// AGNNLayer is the attention-based GNN of Thekumparampil et al. in the
// paper's global formulation (Figure 1, "AGNN"):
//
//	Forward:   n    = row L2 norms of H
//	           C    = (A ⊙ H·Hᵀ) ⊘ (n·nᵀ)      cosine scores; n·nᵀ virtual
//	           Ψ    = sm(β·C)                    graph softmax, β learnable
//	           Z    = Ψ·H·W                      computed as (Ψ·H)·W
//	           H'   = σ(Z)
//
// The aggregation comes first so that it gathers the rows of H the cosine
// scores just read — one row fetch per edge — unless W narrows
// (aggregateProject). ∂Ψ/∂W = 0 as stated in Section 5.2, but ∂Ψ/∂β ≠ 0 and
// ∂Ψ/∂H ≠ 0: the derived backward carries the softmax VJP into β, the dot
// products and the norms.
type AGNNLayer struct {
	planned
	W    *Param
	Beta *Param
	Act  Activation
}

// NewAGNNLayer constructs an AGNN layer with β initialized to 1.
func NewAGNNLayer(a *sparse.CSR, inDim, outDim int, act Activation, rng *rand.Rand) *AGNNLayer {
	l := &AGNNLayer{
		W:    NewParam("W", tensor.GlorotInit(inDim, outDim, rng)),
		Beta: NewScalarParam("beta", 1),
		Act:  act,
	}
	l.params = []*Param{l.W, l.Beta}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *AGNNLayer) Name() string { return "agnn" }

// DAG implements DAGLayer. The whole virtual chain H·Hᵀ ⊘ n·nᵀ scaled by β
// collapses into the softmax sampling sweep (mask+softmax fuse into one
// kernel), matching the Figure 5 analysis.
func (l *AGNNLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	bn := g.ParamNode("beta", planRef(l.Beta))
	norms := g.RowNormsNode("n", h)
	cos := g.DivScores("C", g.DotScores("HHt", h, h), g.OuterScores("nnT", norms, norms))
	s := g.Mask("S", g.ScaleScores("betaC", cos, bn), true)
	psi := g.Softmax("Psi", s)
	g.SetOutput(g.Sigma("Hout", aggregateProject(g, psi, h, l.W), planAct(l.Act)))
}

func (l *AGNNLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

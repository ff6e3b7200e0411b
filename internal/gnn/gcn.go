package gnn

import (
	"math/rand"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// GCNLayer is the C-GNN special case used by the Section 8.4 verification
// experiment: Z = Â·H·W with Â the (pre-)normalized adjacency matrix. Ψ
// degenerates to Â itself, so — as the paper notes in Section 4.4 — once Ψ
// is fixed, the execution strategy is identical to the A-GNNs'.
type GCNLayer struct {
	planned // A is expected pre-normalized (graph.NormalizeGCN)
	W       *Param
	Act     Activation
}

// NewGCNLayer constructs a GCN layer; a should already carry the symmetric
// normalization (graph.NormalizeGCN).
func NewGCNLayer(a *sparse.CSR, inDim, outDim int, act Activation, rng *rand.Rand) *GCNLayer {
	l := &GCNLayer{W: NewParam("W", tensor.GlorotInit(inDim, outDim, rng)), Act: act}
	l.params = []*Param{l.W}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *GCNLayer) Name() string { return "gcn" }

// DAG implements DAGLayer: Z = Â·(H·W), σ.
func (l *GCNLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	w := g.ParamNode("W", planRef(l.W))
	z := g.SpMM("Z", g.Adj(), g.MM("HW", h, w))
	g.SetOutput(g.Sigma("Hout", z, planAct(l.Act)))
}

func (l *GCNLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

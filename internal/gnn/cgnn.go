package gnn

import (
	"fmt"
	"math/rand"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The remaining C-GNN models the paper names (Sections 1, 2.2 and 4.4):
// GIN, whose Φ is an MLP ("a series of multiplications with different
// parameter matrices, interleaved with non-linearities"), and SGC, the
// Simple Graph Convolution that stacks K propagation hops with a single
// projection. Both fit the same σ((Φ∘⊕)(Ψ,H)) scheme with Ψ ≡ A.

// GINLayer implements the Graph Isomorphism Network layer:
//
//	Z = MLP((1+ε)·H + A·H),  MLP(X) = σm(X·W₁)·W₂
//
// with a trainable ε (as in GIN-ε).
type GINLayer struct {
	planned
	W1, W2 *Param
	Eps    *Param
	ActMLP Activation // the MLP's internal non-linearity
	Act    Activation // the layer output non-linearity σ
}

// NewGINLayer constructs a GIN layer with a 2-layer MLP of the given
// hidden width and ε initialized to 0.
func NewGINLayer(a *sparse.CSR, inDim, hidden, outDim int, act Activation, rng *rand.Rand) *GINLayer {
	l := &GINLayer{
		W1:     NewParam("W1", tensor.GlorotInit(inDim, hidden, rng)),
		W2:     NewParam("W2", tensor.GlorotInit(hidden, outDim, rng)),
		Eps:    NewScalarParam("eps", 0),
		ActMLP: ReLU(),
		Act:    act,
	}
	l.params = []*Param{l.W1, l.W2, l.Eps}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *GINLayer) Name() string { return "gin" }

// DAG implements DAGLayer: aggregation, the (1+ε) combine, and the
// two-layer MLP.
func (l *GINLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	w1 := g.ParamNode("W1", planRef(l.W1))
	w2 := g.ParamNode("W2", planRef(l.W2))
	eps := g.ParamNode("eps", planRef(l.Eps))
	pre := g.GINCombine("pre", g.SpMM("AH", g.Adj(), h), h, eps)
	mid := g.Sigma("mid2", g.MM("mid1", pre, w1), planAct(l.ActMLP))
	z := g.MM("Z", mid, w2)
	g.SetOutput(g.Sigma("Hout", z, planAct(l.Act)))
}

func (l *GINLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

// SGCLayer implements Simple Graph Convolution: K propagation hops with the
// symmetric-normalized adjacency and one projection,
//
//	Z = Â^K·H·W,
//
// the "simple graph convolution model" of the paper's Section 8.4
// verification, with no non-linearity between hops.
type SGCLayer struct {
	planned // A is expected pre-normalized
	K       int
	W       *Param
	Act     Activation
}

// NewSGCLayer constructs a K-hop SGC layer; a should carry the GCN
// normalization.
func NewSGCLayer(a *sparse.CSR, k, inDim, outDim int, act Activation, rng *rand.Rand) *SGCLayer {
	if k < 1 {
		panic("gnn: SGC needs K >= 1 hops")
	}
	l := &SGCLayer{K: k, W: NewParam("W", tensor.GlorotInit(inDim, outDim, rng)), Act: act}
	l.params = []*Param{l.W}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *SGCLayer) Name() string { return "sgc" }

// DAG implements DAGLayer: K chained propagation hops and one projection.
func (l *SGCLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	wn := g.ParamNode("W", planRef(l.W))
	cur := h
	for t := 0; t < l.K; t++ {
		cur = g.SpMM(fmt.Sprintf("A%d", t+1), g.Adj(), cur)
	}
	z := g.MM("Z", cur, wn)
	g.SetOutput(g.Sigma("Hout", z, planAct(l.Act)))
}

func (l *SGCLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

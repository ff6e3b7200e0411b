package gnn

import (
	"fmt"
	"math/rand"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
)

// MultiHeadGATLayer is the K-head extension of GAT from Veličković et al.,
// one of the paper's "models beyond those considered" that the global
// formulation covers for free: the layer's DAG is K copies of the
// single-head chain (GATHead.attend) over one input, each with its own
// (W_h, a_h), joined by one node — a column concat of the head outputs
// (hidden layers) or their mean (final layer). Execution, the backward pass
// and the lowering onto every engine follow from the DAG.
type MultiHeadGATLayer struct {
	planned
	Heads    []GATHead
	Concat   bool // true: concat head outputs (out = heads·headDim); false: average
	Act      Activation
	NegSlope float64
	headDim  int
}

// NewMultiHeadGATLayer builds a K-head GAT layer. With Concat the output
// dimensionality is heads·headDim; with averaging it is headDim.
func NewMultiHeadGATLayer(a *sparse.CSR, inDim, headDim, heads int, concat bool,
	act Activation, negSlope float64, rng *rand.Rand) *MultiHeadGATLayer {
	if heads < 1 {
		panic(fmt.Sprintf("gnn: %d heads", heads))
	}
	l := &MultiHeadGATLayer{Concat: concat, Act: act, NegSlope: negSlope, headDim: headDim}
	for h := 0; h < heads; h++ {
		l.Heads = append(l.Heads, newGATHead(inDim, headDim, rng))
		hd := l.Heads[h]
		l.params = append(l.params, hd.W, hd.A1, hd.A2) // (W, a₁, a₂) per head, in head order
	}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *MultiHeadGATLayer) Name() string { return "gat-multihead" }

// OutDim returns the layer's output dimensionality.
func (l *MultiHeadGATLayer) OutDim() int {
	if l.Concat {
		return len(l.Heads) * l.headDim
	}
	return l.headDim
}

// DAG implements DAGLayer. σ is applied per head: under the mean it does
// not commute with the combination.
func (l *MultiHeadGATLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	outs := make([]*fuse.Node, len(l.Heads))
	for i, hd := range l.Heads {
		outs[i] = hd.attend(g, h, l.NegSlope, l.Act, fmt.Sprintf(".h%d", i))
	}
	if l.Concat {
		g.SetOutput(g.ConcatCols("Hout", outs...))
	} else {
		g.SetOutput(g.Mean("Hout", outs...))
	}
}

func (l *MultiHeadGATLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

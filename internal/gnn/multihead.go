package gnn

import (
	"fmt"
	"math/rand"

	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// MultiHeadGATLayer is the K-head extension of GAT from Veličković et al.,
// one of the paper's "models beyond those considered" that the global
// formulation covers for free: each head h runs the single-head global
// pipeline with its own (W_h, a_h) parameters, and the head outputs are
// either concatenated (hidden layers) or averaged (final layer). Because σ
// is element-wise, σ(concat) = concat(σ), so the layer simply fans the
// gradient slices back into the per-head backward passes.
type MultiHeadGATLayer struct {
	Heads   []*GATLayer
	Concat  bool // true: concat head outputs (out = heads·headDim); false: average
	headDim int

	// Layer-owned buffers reused across steps. The heads' plan-backed
	// Forward/Backward return plan-owned buffers that must not be mutated,
	// so combination and gradient fan-out happen in these.
	out, gHead, gIn *tensor.Dense
}

// ensureBuf returns a layer-owned rows×cols buffer, reallocating only on
// shape change.
func ensureBuf(buf **tensor.Dense, rows, cols int) *tensor.Dense {
	if *buf == nil || (*buf).Rows != rows || (*buf).Cols != cols {
		*buf = tensor.NewDense(rows, cols)
	}
	return *buf
}

// NewMultiHeadGATLayer builds a K-head GAT layer. With Concat the output
// dimensionality is heads·headDim; with averaging it is headDim.
func NewMultiHeadGATLayer(a *sparse.CSR, inDim, headDim, heads int, concat bool,
	act Activation, negSlope float64, rng *rand.Rand) *MultiHeadGATLayer {
	if heads < 1 {
		panic(fmt.Sprintf("gnn: %d heads", heads))
	}
	l := &MultiHeadGATLayer{Concat: concat, headDim: headDim}
	for h := 0; h < heads; h++ {
		l.Heads = append(l.Heads, NewGATLayer(a, inDim, headDim, act, negSlope, rng))
	}
	return l
}

// Name implements Layer.
func (l *MultiHeadGATLayer) Name() string { return "gat-multihead" }

// Params implements Layer.
func (l *MultiHeadGATLayer) Params() []*Param {
	var ps []*Param
	for _, h := range l.Heads {
		ps = append(ps, h.Params()...)
	}
	return ps
}

func (l *MultiHeadGATLayer) releasePlans() {
	for _, h := range l.Heads {
		h.releasePlans()
	}
}

// OutDim returns the layer's output dimensionality.
func (l *MultiHeadGATLayer) OutDim() int {
	if l.Concat {
		return len(l.Heads) * l.headDim
	}
	return l.headDim
}

// Forward implements Layer.
func (l *MultiHeadGATLayer) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	outs := make([]*tensor.Dense, len(l.Heads))
	for i, head := range l.Heads {
		outs[i] = head.Forward(h, training)
	}
	if h == nil {
		return nil // a grid rank off the diagonal: the heads only communicated
	}
	if l.Concat {
		out := ensureBuf(&l.out, h.Rows, len(l.Heads)*l.headDim)
		for i, o := range outs {
			for r := 0; r < h.Rows; r++ {
				copy(out.Row(r)[i*l.headDim:(i+1)*l.headDim], o.Row(r))
			}
		}
		return out
	}
	out := ensureBuf(&l.out, h.Rows, l.headDim)
	out.CopyFrom(outs[0])
	for _, o := range outs[1:] {
		out.AddInPlace(o)
	}
	return out.ScaleInPlace(1 / float64(len(l.Heads)))
}

// Backward implements Layer.
func (l *MultiHeadGATLayer) Backward(gOut *tensor.Dense) *tensor.Dense {
	if gOut == nil { // a grid rank off the diagonal, as in Forward
		for _, head := range l.Heads {
			head.Backward(nil)
		}
		return nil
	}
	var gHead *tensor.Dense
	if l.Concat {
		gHead = ensureBuf(&l.gHead, gOut.Rows, l.headDim)
	} else {
		// The averaged gradient is the same for every head; build it once.
		gHead = ensureBuf(&l.gHead, gOut.Rows, gOut.Cols)
		gHead.CopyFrom(gOut)
		gHead.ScaleInPlace(1 / float64(len(l.Heads)))
	}
	var gIn *tensor.Dense
	for i, head := range l.Heads {
		if l.Concat {
			for r := 0; r < gOut.Rows; r++ {
				copy(gHead.Row(r), gOut.Row(r)[i*l.headDim:(i+1)*l.headDim])
			}
		}
		g := head.Backward(gHead)
		if gIn == nil {
			gIn = ensureBuf(&l.gIn, g.Rows, g.Cols)
			gIn.CopyFrom(g)
		} else {
			gIn.AddInPlace(g)
		}
	}
	return gIn
}

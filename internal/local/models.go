package local

import (
	"math"

	"agnn/internal/gnn"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The three A-GNN models in the local formulation. Each layer implements
// gnn.Layer, so local models stack inside gnn.Model and reuse the same
// losses, optimizers and training loop; only the execution strategy
// (per-vertex message passing instead of global tensor kernels) differs.

// ---------------------------------------------------------------- helpers

// project computes hp = h·W with per-vertex loops (the local formulation's
// per-message linear transform).
func project(h, w *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(h.Rows, w.Cols)
	par.Range(h.Rows, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			hrow := h.Row(v)
			orow := out.Row(v)
			for t, hv := range hrow {
				if hv == 0 {
					continue
				}
				wrow := w.Data[t*w.Cols : (t+1)*w.Cols]
				for j, wv := range wrow {
					orow[j] += hv * wv
				}
			}
		}
	})
	return out
}

// edgeDotRows computes per out-edge p of row i: dot(x.Row(i), y.Row(col[p])).
func edgeDotRows(g *Graph, x, y *tensor.Dense) []float64 {
	out := make([]float64, g.NNZ())
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			xrow := x.Row(i)
			for p := g.OutPtr[i]; p < g.OutPtr[i+1]; p++ {
				yrow := y.Row(int(g.OutCol[p]))
				acc := 0.0
				for t, xv := range xrow {
					acc += xv * yrow[t]
				}
				out[p] = acc
			}
		}
	})
	return out
}

// rowSoftmaxEdges applies a per-neighborhood softmax over edge scores.
func rowSoftmaxEdges(g *Graph, scores []float64) []float64 {
	out := make([]float64, len(scores))
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b, e := g.OutPtr[i], g.OutPtr[i+1]
			if b == e {
				continue
			}
			m := math.Inf(-1)
			for p := b; p < e; p++ {
				if scores[p] > m {
					m = scores[p]
				}
			}
			sum := 0.0
			for p := b; p < e; p++ {
				v := math.Exp(scores[p] - m)
				out[p] = v
				sum += v
			}
			inv := 1 / sum
			for p := b; p < e; p++ {
				out[p] *= inv
			}
		}
	})
	return out
}

// softmaxBackwardEdges computes the per-neighborhood softmax VJP.
func softmaxBackwardEdges(g *Graph, psi, psiBar []float64) []float64 {
	out := make([]float64, len(psi))
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b, e := g.OutPtr[i], g.OutPtr[i+1]
			rho := 0.0
			for p := b; p < e; p++ {
				rho += psiBar[p] * psi[p]
			}
			for p := b; p < e; p++ {
				out[p] = psi[p] * (psiBar[p] - rho)
			}
		}
	})
	return out
}

// accumWeightGrad adds Σ_v outer(h_v, hpBar_v) into wGrad using per-worker
// partial accumulators.
func accumWeightGrad(wGrad, h, hpBar *tensor.Dense) {
	k1, k2 := h.Cols, hpBar.Cols
	partials := make([]*tensor.Dense, par.Workers())
	par.Range(h.Rows, func(worker, lo, hi int) {
		acc := partials[worker]
		if acc == nil {
			acc = tensor.NewDense(k1, k2)
			partials[worker] = acc
		}
		for v := lo; v < hi; v++ {
			hrow := h.Row(v)
			brow := hpBar.Row(v)
			for t, hv := range hrow {
				if hv == 0 {
					continue
				}
				arow := acc.Data[t*k2 : (t+1)*k2]
				for j, bv := range brow {
					arow[j] += hv * bv
				}
			}
		}
	})
	for _, p := range partials {
		if p != nil {
			wGrad.AddInPlace(p)
		}
	}
}

// ---------------------------------------------------------------- VA

// VALayer is vanilla attention in the local formulation:
// h'_i = σ(Σ_{j∈N(i)} a_ij·(h_i·h_j)·W h_j).
type VALayer struct {
	G   *Graph
	W   *gnn.Param
	Act gnn.Activation

	h, hp *tensor.Dense
	psi   []float64
	z     *tensor.Dense
}

// NewVALayer wraps an existing weight matrix (cloned) as a local VA layer.
func NewVALayer(g *Graph, w *tensor.Dense, act gnn.Activation) *VALayer {
	return &VALayer{G: g, W: gnn.NewParam("W", w.Clone()), Act: act}
}

// Name implements gnn.Layer.
func (l *VALayer) Name() string { return "local-va" }

// Params implements gnn.Layer.
func (l *VALayer) Params() []*gnn.Param { return []*gnn.Param{l.W} }

// Forward implements gnn.Layer.
func (l *VALayer) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	g := l.G
	hp := project(h, l.W.Value)
	psi := edgeDotRows(g, h, h)
	for p := range psi {
		psi[p] *= sparse.ValueAt(g.OutVal, int64(p))
	}
	k := hp.Cols
	z := tensor.NewDense(g.N, k)
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			zrow := z.Row(i)
			for p := g.OutPtr[i]; p < g.OutPtr[i+1]; p++ {
				w := psi[p]
				hrow := hp.Row(int(g.OutCol[p]))
				for t, hv := range hrow {
					zrow[t] += w * hv
				}
			}
		}
	})
	if training {
		l.h, l.hp, l.psi, l.z = h, hp, psi, z
	}
	return z.Apply(l.Act.F)
}

// Backward implements gnn.Layer.
func (l *VALayer) Backward(gOut *tensor.Dense) *tensor.Dense {
	if l.z == nil {
		panic("local: VALayer.Backward before training-mode Forward")
	}
	g := l.G
	gz := gOut.Hadamard(l.z.Apply(l.Act.DF))
	m := project(gz, l.W.Value.T())    // M = G·Wᵀ
	psiBar := edgeDotRows(g, gz, l.hp) // ψ̄_ij = g_i·hp_j
	hbar := tensor.NewDense(g.N, l.h.Cols)
	par.Range(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			hrow := hbar.Row(v)
			// Aggregation path: Σ over in-edges (i→v) of ψ_iv·m_i, plus the
			// j-side score path ψ̄ᵃ_iv·h_i.
			for q := g.InPtr[v]; q < g.InPtr[v+1]; q++ {
				i := int(g.InCol[q])
				pos := g.InPos[q]
				tensor.Axpy(l.psi[pos], m.Row(i), hrow)
				tensor.Axpy(psiBar[pos]*sparse.ValueAt(g.OutVal, pos), l.h.Row(i), hrow)
			}
			// i-side score path: Σ over out-edges (v→j) of ψ̄ᵃ_vj·h_j.
			for p := g.OutPtr[v]; p < g.OutPtr[v+1]; p++ {
				tensor.Axpy(psiBar[p]*sparse.ValueAt(g.OutVal, p), l.h.Row(int(g.OutCol[p])), hrow)
			}
		}
	})
	// W̄ = Σ_{(i,j)} ψ_ij·outer(h_j, g_i): gather per destination vertex.
	hpBar := tensor.NewDense(g.N, l.hp.Cols)
	par.Range(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			brow := hpBar.Row(v)
			for q := g.InPtr[v]; q < g.InPtr[v+1]; q++ {
				tensor.Axpy(l.psi[g.InPos[q]], gz.Row(int(g.InCol[q])), brow)
			}
		}
	})
	accumWeightGrad(l.W.Grad, l.h, hpBar)
	return hbar
}

// ---------------------------------------------------------------- AGNN

// AGNNLayer is AGNN in the local formulation: per-edge cosine scores scaled
// by a learnable β, neighborhood softmax, weighted aggregation, projection.
type AGNNLayer struct {
	G    *Graph
	W    *gnn.Param
	Beta *gnn.Param
	Act  gnn.Activation

	h, hp    *tensor.Dense
	inv      []float64
	cos, psi []float64
	z        *tensor.Dense
}

// NewAGNNLayer wraps existing weights as a local AGNN layer (β = 1).
func NewAGNNLayer(g *Graph, w *tensor.Dense, beta float64, act gnn.Activation) *AGNNLayer {
	return &AGNNLayer{G: g, W: gnn.NewParam("W", w.Clone()),
		Beta: gnn.NewScalarParam("beta", beta), Act: act}
}

// Name implements gnn.Layer.
func (l *AGNNLayer) Name() string { return "local-agnn" }

// Params implements gnn.Layer.
func (l *AGNNLayer) Params() []*gnn.Param { return []*gnn.Param{l.W, l.Beta} }

// Forward implements gnn.Layer.
func (l *AGNNLayer) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	g := l.G
	beta := l.Beta.Scalar()
	norms := tensor.RowNorms(h)
	inv := make([]float64, len(norms))
	for i, v := range norms {
		if v > 0 {
			inv[i] = 1 / v
		}
	}
	cos := edgeDotRows(g, h, h)
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			for p := g.OutPtr[i]; p < g.OutPtr[i+1]; p++ {
				cos[p] *= sparse.ValueAt(g.OutVal, p) * inv[i] * inv[g.OutCol[p]]
			}
		}
	})
	scores := make([]float64, len(cos))
	for p, c := range cos {
		scores[p] = beta * c
	}
	psi := rowSoftmaxEdges(g, scores)
	hp := project(h, l.W.Value)
	z := aggregateEdges(g, psi, hp)
	if training {
		l.h, l.hp, l.inv, l.cos, l.psi, l.z = h, hp, inv, cos, psi, z
	}
	return z.Apply(l.Act.F)
}

// Backward implements gnn.Layer.
func (l *AGNNLayer) Backward(gOut *tensor.Dense) *tensor.Dense {
	if l.z == nil {
		panic("local: AGNNLayer.Backward before training-mode Forward")
	}
	g := l.G
	beta := l.Beta.Scalar()
	gz := gOut.Hadamard(l.z.Apply(l.Act.DF))
	psiBar := edgeDotRows(g, gz, l.hp)
	tBar := softmaxBackwardEdges(g, l.psi, psiBar)
	betaGrad := 0.0
	cBar := make([]float64, len(tBar))
	for p := range tBar {
		betaGrad += tBar[p] * l.cos[p]
		cBar[p] = beta * tBar[p]
	}
	l.Beta.AddScalarGrad(betaGrad)

	// hpBar: aggregation path only (Ψᵀ·G).
	hpBar := gatherScaled(g, l.psi, gz)
	accumWeightGrad(l.W.Grad, l.h, hpBar)
	hbar := project(hpBar, l.W.Value.T())

	// sBar per edge = grad into the raw dot (h_i·h_j): includes the
	// adjacency weight and both norm inverses. D = C̄ ⊙ C drives the norm
	// gradient.
	par.Range(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			hrow := hbar.Row(v)
			rowD := 0.0
			for p := g.OutPtr[v]; p < g.OutPtr[v+1]; p++ {
				j := int(g.OutCol[p])
				sb := cBar[p] * sparse.ValueAt(g.OutVal, p) * l.inv[v] * l.inv[j]
				tensor.Axpy(sb, l.h.Row(j), hrow)
				rowD += cBar[p] * l.cos[p]
			}
			colD := 0.0
			for q := g.InPtr[v]; q < g.InPtr[v+1]; q++ {
				i := int(g.InCol[q])
				pos := g.InPos[q]
				sb := cBar[pos] * sparse.ValueAt(g.OutVal, pos) * l.inv[i] * l.inv[v]
				tensor.Axpy(sb, l.h.Row(i), hrow)
				colD += cBar[pos] * l.cos[pos]
			}
			coef := -l.inv[v] * (rowD + colD) * l.inv[v]
			if coef != 0 {
				tensor.Axpy(coef, l.h.Row(v), hrow)
			}
		}
	})
	return hbar
}

// ---------------------------------------------------------------- GAT

// GATLayer is GAT in the local formulation: per-edge LeakyReLU attention
// logits a₁·Wh_i + a₂·Wh_j, neighborhood softmax, weighted aggregation.
type GATLayer struct {
	G        *Graph
	W        *gnn.Param
	A1, A2   *gnn.Param
	Act      gnn.Activation
	NegSlope float64

	h, hp *tensor.Dense
	u, v  []float64
	psi   []float64
	z     *tensor.Dense
}

// NewGATLayer wraps existing weights as a local GAT layer.
func NewGATLayer(g *Graph, w, a1, a2 *tensor.Dense, act gnn.Activation, negSlope float64) *GATLayer {
	return &GATLayer{G: g,
		W: gnn.NewParam("W", w.Clone()), A1: gnn.NewParam("a1", a1.Clone()),
		A2: gnn.NewParam("a2", a2.Clone()), Act: act, NegSlope: negSlope}
}

// Name implements gnn.Layer.
func (l *GATLayer) Name() string { return "local-gat" }

// Params implements gnn.Layer.
func (l *GATLayer) Params() []*gnn.Param { return []*gnn.Param{l.W, l.A1, l.A2} }

// Forward implements gnn.Layer.
func (l *GATLayer) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	g := l.G
	hp := project(h, l.W.Value)
	u := tensor.MatVec(hp, l.A1.Value.Data)
	v := tensor.MatVec(hp, l.A2.Value.Data)
	scores := make([]float64, g.NNZ())
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			for p := g.OutPtr[i]; p < g.OutPtr[i+1]; p++ {
				s := u[i] + v[g.OutCol[p]]
				if s < 0 {
					s *= l.NegSlope
				}
				scores[p] = s
			}
		}
	})
	psi := rowSoftmaxEdges(g, scores)
	z := aggregateEdges(g, psi, hp)
	if training {
		l.h, l.hp, l.u, l.v, l.psi, l.z = h, hp, u, v, psi, z
	}
	return z.Apply(l.Act.F)
}

// Backward implements gnn.Layer.
func (l *GATLayer) Backward(gOut *tensor.Dense) *tensor.Dense {
	if l.z == nil {
		panic("local: GATLayer.Backward before training-mode Forward")
	}
	g := l.G
	gz := gOut.Hadamard(l.z.Apply(l.Act.DF))
	psiBar := edgeDotRows(g, gz, l.hp)
	eBar := softmaxBackwardEdges(g, l.psi, psiBar)
	cBar := make([]float64, len(eBar))
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			for p := g.OutPtr[i]; p < g.OutPtr[i+1]; p++ {
				d := 1.0
				if l.u[i]+l.v[g.OutCol[p]] < 0 {
					d = l.NegSlope
				}
				cBar[p] = eBar[p] * d
			}
		}
	})
	// ū_i = Σ_out C̄, v̄_v = Σ_in C̄.
	uBar := make([]float64, g.N)
	vBar := make([]float64, g.N)
	par.Range(g.N, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			s := 0.0
			for p := g.OutPtr[w]; p < g.OutPtr[w+1]; p++ {
				s += cBar[p]
			}
			uBar[w] = s
			s = 0.0
			for q := g.InPtr[w]; q < g.InPtr[w+1]; q++ {
				s += cBar[g.InPos[q]]
			}
			vBar[w] = s
		}
	})
	hpBar := gatherScaled(g, l.psi, gz)
	tensor.AddOuterInPlace(hpBar, 1, uBar, l.A1.Value.Data)
	tensor.AddOuterInPlace(hpBar, 1, vBar, l.A2.Value.Data)
	a1g := tensor.VecMat(uBar, l.hp)
	a2g := tensor.VecMat(vBar, l.hp)
	for i := range a1g {
		l.A1.Grad.Data[i] += a1g[i]
		l.A2.Grad.Data[i] += a2g[i]
	}
	accumWeightGrad(l.W.Grad, l.h, hpBar)
	return project(hpBar, l.W.Value.T())
}

// aggregateEdges computes z_i = Σ_{j∈N(i)} w_p · x_j for per-edge weights w
// (nil: a pattern's ones).
func aggregateEdges(g *Graph, w []float64, x *tensor.Dense) *tensor.Dense {
	k := x.Cols
	z := tensor.NewDense(g.N, k)
	par.Range(g.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			zrow := z.Row(i)
			for p := g.OutPtr[i]; p < g.OutPtr[i+1]; p++ {
				tensor.Axpy(sparse.ValueAt(w, p), x.Row(int(g.OutCol[p])), zrow)
			}
		}
	})
	return z
}

// gatherScaled computes y_v = Σ over in-edges (i→v) of w_pos · x_i — the
// race-free gather form of the scatter Σ_i w·x_i → y_j (w nil: ones).
func gatherScaled(g *Graph, w []float64, x *tensor.Dense) *tensor.Dense {
	k := x.Cols
	y := tensor.NewDense(g.N, k)
	par.Range(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			yrow := y.Row(v)
			for q := g.InPtr[v]; q < g.InPtr[v+1]; q++ {
				tensor.Axpy(sparse.ValueAt(w, g.InPos[q]), x.Row(int(g.InCol[q])), yrow)
			}
		}
	})
	return y
}

package gnn

import (
	"fmt"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// This file implements the programmability story of Eq. (1): a user-defined
// A-GNN is assembled from three pluggable pieces,
//
//	H^{l+1} = σ(Z),  Z = (Φ∘⊕)(Ψ(A, H), H)
//
// where Ψ computes the (sparse) attention/coefficient matrix, ⊕ aggregates
// neighbor features through it, and Φ updates the aggregate. Configurations
// built entirely from the named constructors below compile to an executable
// fuse.Plan, which also derives a trained backward pass for linear Φ (and
// MLP Φ) under sum aggregation; custom closures and semiring aggregations
// remain inference-only, reported through CanTrain rather than a mid-epoch
// panic.

// PsiFunc computes the sparse coefficient matrix Ψ(A, H) — its output must
// have A's shape. Built-in examples: VA's A ⊙ H·Hᵀ, GAT's sm(A ⊙ σ(C)).
type PsiFunc func(a *sparse.CSR, h *tensor.Dense) *sparse.CSR

// AggFunc is the ⊕ aggregation: it combines Ψ with the feature matrix.
// The default is the real-semiring SpMM Ψ·H; semiring variants (max, min,
// average) plug in here.
type AggFunc func(psi *sparse.CSR, h *tensor.Dense) *tensor.Dense

// UpdateFunc is the Φ update applied around the aggregation. Typical
// instances are a linear projection (·W) or an MLP.
type UpdateFunc func(h *tensor.Dense) *tensor.Dense

// Psi is a named Ψ choice. Kind identifies the built-in formulations the
// plan compiler knows how to differentiate ("adjacency", "dot",
// "softmax-dot"); F is the executable closure (always usable for inference).
// The zero value means adjacency.
type Psi struct {
	Kind string
	F    PsiFunc
}

// Agg is a named ⊕ choice ("sum", "max", "min", "mean"); the zero value
// means sum. Only sum (the real semiring) has a linear backward.
type Agg struct {
	Kind string
	F    AggFunc
}

// Phi is a named Φ choice ("identity", "linear", "mlp"). For linear/MLP
// updates, Ws holds the projection matrices (shared with F's closure, so the
// optimizer and the closure see the same buffers) and Act the MLP's internal
// non-linearity. The zero value means identity.
type Phi struct {
	Kind string
	F    UpdateFunc
	Ws   []*tensor.Dense
	Act  Activation
}

// GenericLayer is a programmable A-GNN layer. PhiFirst selects the Φ∘⊕
// application order of Section 4.4: when true, Φ is applied to the features
// before aggregation (legal whenever Φ is linear), which is usually cheaper
// because the projection shrinks the feature dimension before the sparse
// product.
//
// When Ψ, ⊕ and Φ are all built-ins the layer is its DAG like every other
// layer: both modes run compiled plans (DType F32 requires sum aggregation —
// semiring ⊕ compiles only to f64 forward-only plans). Any custom piece
// makes it execute the closures instead, inference-only (CanTrain explains
// why). Build one with NewGenericLayer.
type GenericLayer struct {
	planned
	Psi      Psi
	Agg      Agg
	Phi      Phi
	Act      Activation
	PhiFirst bool

	params []*Param
}

// NewGenericLayer binds the Ψ/⊕/Φ assembly described by spec's exported
// fields to adjacency a.
func NewGenericLayer(a *sparse.CSR, spec GenericLayer) *GenericLayer {
	l := &spec
	l.params = nil
	switch l.Phi.Kind {
	case "linear", "mlp":
		for i, w := range l.Phi.Ws {
			l.params = append(l.params, NewParam(fmt.Sprintf("W%d", i+1), w))
		}
	}
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *GenericLayer) Name() string { return "generic" }

// Params implements Layer: the wrapped Φ projection matrices for built-in
// linear/MLP updates; user-supplied closures own their parameters.
func (l *GenericLayer) Params() []*Param { return l.params }

// CanTrain implements TrainableLayer: it reports, before any backward pass
// runs, whether this Ψ/⊕/Φ assembly has a plan-derived backward.
func (l *GenericLayer) CanTrain() error {
	switch l.Psi.Kind {
	case "", "adjacency", "dot", "softmax-dot":
	default:
		return fmt.Errorf("Ψ kind %q has no plan-derived backward; implement Layer directly to train it", l.Psi.Kind)
	}
	switch l.Agg.Kind {
	case "", "sum":
	case "max", "min", "mean":
		return fmt.Errorf("semiring aggregation %q is forward-only (Section 4.3); only sum has a linear backward", l.Agg.Kind)
	default:
		return fmt.Errorf("⊕ kind %q has no plan-derived backward", l.Agg.Kind)
	}
	switch l.Phi.Kind {
	case "", "identity", "linear", "mlp":
	default:
		return fmt.Errorf("Φ kind %q has no plan-derived backward", l.Phi.Kind)
	}
	if l.Act.F != nil && l.Act.DF == nil {
		return fmt.Errorf("activation %q has no derivative", l.Act.Name)
	}
	return nil
}

// plannable reports whether every piece is a built-in the graph builder can
// express (semiring aggregations included — they compile to forward-only
// plans).
func (l *GenericLayer) plannable() bool {
	switch l.Psi.Kind {
	case "", "adjacency", "dot", "softmax-dot":
	default:
		return false
	}
	switch l.Agg.Kind {
	case "", "sum", "max", "min", "mean":
	default:
		return false
	}
	switch l.Phi.Kind {
	case "", "identity", "linear", "mlp":
	default:
		return false
	}
	return true
}

// DAG implements DAGLayer for assemblies of built-in pieces.
func (l *GenericLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	phi := func(x *fuse.Node) *fuse.Node {
		for i, p := range l.params {
			w := g.ParamNode(p.Name, planRef(p))
			x = g.MM(fmt.Sprintf("phi%d", i+1), x, w)
			if i < len(l.params)-1 {
				x = g.Sigma(fmt.Sprintf("phiAct%d", i+1), x, planAct(l.Phi.Act))
			}
		}
		return x
	}

	var psi *fuse.Node
	switch l.Psi.Kind {
	case "", "adjacency":
		psi = g.Adj()
	case "dot":
		psi = g.Mask("Psi", g.DotScores("HHt", h, h), true)
	case "softmax-dot":
		psi = g.Softmax("Psi", g.Mask("S", g.DotScores("HHt", h, h), true))
	}

	x := h
	if l.PhiFirst {
		x = phi(x)
	}
	var z *fuse.Node
	switch l.Agg.Kind {
	case "", "sum":
		z = g.SpMM("Z", psi, x)
	default:
		z = g.SpMMSemiring("Z", psi, x, l.Agg.Kind)
	}
	if !l.PhiFirst {
		z = phi(z)
	}
	g.SetOutput(g.Sigma("Hout", z, planAct(l.Act)))
}

// Signature implements DAGLayer.
func (l *GenericLayer) Signature(train bool) string {
	return planSig(l, train, l.Act, fmt.Sprintf("psi=%s|agg=%s|phi=%s|phiFirst=%t|phiAct=%s",
		l.Psi.Kind, l.Agg.Kind, l.Phi.Kind, l.PhiFirst, planAct(l.Phi.Act).Name))
}

func (l *GenericLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

// Forward implements Layer (Eq. 1). Forward-only assemblies (semiring ⊕)
// have no training plan, so training mode runs their inference plan.
func (l *GenericLayer) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	if !l.plannable() {
		return l.closureForward(h)
	}
	return l.planned.Forward(h, training && l.CanTrain() == nil)
}

// closureForward evaluates Eq. 1 by calling the Ψ, ⊕ and Φ closures — the
// only execution a custom piece has, and what the plan of a built-in
// assembly is fuzzed against.
func (l *GenericLayer) closureForward(h *tensor.Dense) *tensor.Dense {
	psi := l.psiFn()(l.A, h)
	agg := l.aggFn()
	phi := l.phiFn()
	var z *tensor.Dense
	if l.PhiFirst {
		z = agg(psi, phi(h))
	} else {
		z = phi(agg(psi, h))
	}
	return z.Apply(planAct(l.Act).F)
}

// Backward implements Layer: the plan-derived backward for trainable
// assemblies; a descriptive panic otherwise (Model.CheckTrainable surfaces
// the same condition as an error before training starts).
func (l *GenericLayer) Backward(gOut *tensor.Dense) *tensor.Dense {
	if err := l.CanTrain(); err != nil {
		panic("gnn: GenericLayer.Backward: " + err.Error())
	}
	return l.planned.Backward(gOut)
}

// psiFn resolves the executable Ψ closure (constructor-supplied, or rebuilt
// from the kind for struct literals).
func (l *GenericLayer) psiFn() PsiFunc {
	if l.Psi.F != nil {
		return l.Psi.F
	}
	switch l.Psi.Kind {
	case "", "adjacency":
		return AdjacencyPsi().F
	case "dot":
		return DotPsi().F
	case "softmax-dot":
		return SoftmaxDotPsi().F
	}
	panic(fmt.Sprintf("gnn: Ψ kind %q has no closure", l.Psi.Kind))
}

func (l *GenericLayer) aggFn() AggFunc {
	if l.Agg.F != nil {
		return l.Agg.F
	}
	switch l.Agg.Kind {
	case "", "sum":
		return SumAgg().F
	case "max":
		return MaxAgg().F
	case "min":
		return MinAgg().F
	case "mean":
		return MeanAgg().F
	}
	panic(fmt.Sprintf("gnn: ⊕ kind %q has no closure", l.Agg.Kind))
}

func (l *GenericLayer) phiFn() UpdateFunc {
	if l.Phi.F != nil {
		return l.Phi.F
	}
	switch l.Phi.Kind {
	case "", "identity":
		return func(x *tensor.Dense) *tensor.Dense { return x }
	case "linear", "mlp":
		ws := l.Phi.Ws
		act := l.Phi.Act
		return func(x *tensor.Dense) *tensor.Dense { return applyMLP(x, act, ws) }
	}
	panic(fmt.Sprintf("gnn: Φ kind %q has no closure", l.Phi.Kind))
}

func applyMLP(x *tensor.Dense, act Activation, ws []*tensor.Dense) *tensor.Dense {
	for i, w := range ws {
		x = tensor.MM(x, w)
		if i < len(ws)-1 {
			x = x.Apply(act.F)
		}
	}
	return x
}

// SumAgg is the standard sum aggregation — a sparse-dense product over the
// real semiring (Section 4.3).
func SumAgg() Agg {
	return Agg{Kind: "sum",
		F: func(psi *sparse.CSR, h *tensor.Dense) *tensor.Dense { return psi.MulDense(h) }}
}

// MaxAgg aggregates with the tropical-max semiring.
func MaxAgg() Agg {
	return Agg{Kind: "max",
		F: func(psi *sparse.CSR, h *tensor.Dense) *tensor.Dense { return psi.MulDenseMax(h) }}
}

// MinAgg aggregates with the tropical-min semiring.
func MinAgg() Agg {
	return Agg{Kind: "min",
		F: func(psi *sparse.CSR, h *tensor.Dense) *tensor.Dense { return psi.MulDenseMin(h) }}
}

// MeanAgg aggregates with the ℝ² averaging semiring.
func MeanAgg() Agg {
	return Agg{Kind: "mean",
		F: func(psi *sparse.CSR, h *tensor.Dense) *tensor.Dense { return psi.MulDenseMean(h) }}
}

// CustomAgg wraps a user aggregation closure (inference-only).
func CustomAgg(f AggFunc) Agg { return Agg{Kind: "custom", F: f} }

// LinearPhi returns the projection update Φ(X) = X·W.
func LinearPhi(w *tensor.Dense) Phi {
	return Phi{Kind: "linear", Ws: []*tensor.Dense{w},
		F: func(x *tensor.Dense) *tensor.Dense { return tensor.MM(x, w) }}
}

// MLPPhi returns an MLP update: alternating projections and non-linearities
// (the GIN-style Φ of Section 4.4).
func MLPPhi(act Activation, ws ...*tensor.Dense) Phi {
	return Phi{Kind: "mlp", Ws: ws, Act: act,
		F: func(x *tensor.Dense) *tensor.Dense { return applyMLP(x, act, ws) }}
}

// CustomPhi wraps a user update closure (inference-only).
func CustomPhi(f UpdateFunc) Phi { return Phi{Kind: "custom", F: f} }

// AdjacencyPsi returns the degenerate Ψ(A, H) = A of C-GNNs.
func AdjacencyPsi() Psi {
	return Psi{Kind: "adjacency",
		F: func(a *sparse.CSR, _ *tensor.Dense) *sparse.CSR { return a }}
}

// DotPsi returns VA's Ψ(A, H) = A ⊙ H·Hᵀ.
func DotPsi() Psi {
	return Psi{Kind: "dot",
		F: func(a *sparse.CSR, h *tensor.Dense) *sparse.CSR {
			return sparse.SDDMMScaled(a, h, h)
		}}
}

// SoftmaxDotPsi returns sm(A ⊙ H·Hᵀ) — dot-product attention with
// neighborhood softmax.
func SoftmaxDotPsi() Psi {
	return Psi{Kind: "softmax-dot",
		F: func(a *sparse.CSR, h *tensor.Dense) *sparse.CSR {
			return sparse.RowSoftmax(sparse.SDDMMScaled(a, h, h))
		}}
}

// CustomPsi wraps a user coefficient closure (inference-only).
func CustomPsi(f PsiFunc) Psi { return Psi{Kind: "custom", F: f} }

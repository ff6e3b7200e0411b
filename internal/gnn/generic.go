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
// neighbor features through it, and Φ updates the aggregate. Each piece is a
// DAG fragment: a function that appends its nodes to the layer's fuse.Graph
// and returns the node it computes. The built-ins below are predefined
// fragments; a custom piece is a fragment the caller writes against the same
// builder vocabulary. Either way the layer is its DAG like every other layer
// — compiled plans in both modes, at both widths, on every engine, with the
// backward pass derived from the fragment's nodes. The one assembly without
// a backward is a semiring ⊕ (Section 4.3), reported through CanTrain.
//
// Node ids must be unique within a layer's graph. The layer itself uses A, H
// and Hout; the built-in pieces use Psi, S and HHt (Ψ), Z (⊕), and W<i>,
// phi<i>, phiAct<i> (Φ).

// Psi is a Ψ choice: Build appends the nodes computing the coefficient
// matrix Ψ(A, H) from the feature node h and returns its sparse node (on A's
// pattern, like every sparse node of the graph). Kind names the fragment.
// Params are the parameters Build reads (Param.Node); the layer trains and
// serializes them. The zero value means adjacency.
type Psi struct {
	Kind   string
	Params []*Param
	Build  func(g *fuse.Graph, h *fuse.Node) *fuse.Node
}

// Agg is a ⊕ choice: Build aggregates the dense node x through the sparse
// node psi and returns the dense result. The zero value means sum.
type Agg struct {
	Kind  string
	Build func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node
}

// Phi is a Φ choice: Build maps a dense node to a dense node. Kind and
// Params as in Psi. The zero value means identity.
type Phi struct {
	Kind   string
	Params []*Param
	Build  func(g *fuse.Graph, x *fuse.Node) *fuse.Node
}

// GenericLayer is a programmable A-GNN layer. PhiFirst selects the Φ∘⊕
// application order of Section 4.4: when true, Φ is applied to the features
// before aggregation (legal whenever Φ is linear), which is usually cheaper
// because the projection shrinks the feature dimension before the sparse
// product. Build one with NewGenericLayer.
type GenericLayer struct {
	planned
	Psi      Psi
	Agg      Agg
	Phi      Phi
	Act      Activation
	PhiFirst bool
}

// NewGenericLayer binds the Ψ/⊕/Φ assembly described by spec's exported
// fields to adjacency a.
func NewGenericLayer(a *sparse.CSR, spec GenericLayer) *GenericLayer {
	l := &spec
	l.params = append(append([]*Param(nil), l.Psi.Params...), l.Phi.Params...) // Ψ's, then Φ's
	l.bind(a, l)
	return l
}

// Name implements Layer.
func (l *GenericLayer) Name() string { return "generic" }

// CanTrain implements TrainableLayer: it reports, before any backward pass
// runs, whether this assembly has a plan-derived backward.
func (l *GenericLayer) CanTrain() error {
	switch l.Agg.Kind {
	case "max", "min", "mean":
		return fmt.Errorf("semiring aggregation %q is forward-only (Section 4.3); only sum has a linear backward", l.Agg.Kind)
	}
	if l.Act.F != nil && l.Act.DF == nil {
		return fmt.Errorf("activation %q has no derivative", l.Act.Name)
	}
	return nil
}

// DAG implements DAGLayer: Eq. 1 over the three fragments.
func (l *GenericLayer) DAG(g *fuse.Graph, h *fuse.Node) {
	psi, agg, phi := l.Psi.Build, l.Agg.Build, l.Phi.Build
	if psi == nil {
		psi = AdjacencyPsi().Build
	}
	if agg == nil {
		agg = SumAgg().Build
	}
	if phi == nil {
		phi = func(_ *fuse.Graph, x *fuse.Node) *fuse.Node { return x }
	}
	s, x := psi(g, h), h
	if l.PhiFirst {
		x = phi(g, x)
	}
	z := agg(g, s, x)
	if !l.PhiFirst {
		z = phi(g, z)
	}
	g.SetOutput(g.Sigma("Hout", z, planAct(l.Act)))
}

func (l *GenericLayer) rebound(a *sparse.CSR) DAGLayer { c := *l; c.bind(a, &c); return &c }

// AdjacencyPsi returns the degenerate Ψ(A, H) = A of C-GNNs.
func AdjacencyPsi() Psi {
	return Psi{Kind: "adjacency", Build: func(g *fuse.Graph, _ *fuse.Node) *fuse.Node { return g.Adj() }}
}

// DotPsi returns VA's Ψ(A, H) = A ⊙ H·Hᵀ.
func DotPsi() Psi {
	return Psi{Kind: "dot", Build: func(g *fuse.Graph, h *fuse.Node) *fuse.Node {
		return g.Mask("Psi", g.DotScores("HHt", h, h), true)
	}}
}

// SoftmaxDotPsi returns sm(A ⊙ H·Hᵀ) — dot-product attention with
// neighborhood softmax.
func SoftmaxDotPsi() Psi {
	return Psi{Kind: "softmax-dot", Build: func(g *fuse.Graph, h *fuse.Node) *fuse.Node {
		return g.Softmax("Psi", g.Mask("S", g.DotScores("HHt", h, h), true))
	}}
}

// CustomPsi wraps a user Ψ fragment reading the given parameters, under a
// kind of the caller's choosing (see Psi).
func CustomPsi(kind string, build func(g *fuse.Graph, h *fuse.Node) *fuse.Node, params ...*Param) Psi {
	return Psi{Kind: kind, Params: params, Build: build}
}

// SumAgg is the standard sum aggregation — a sparse-dense product over the
// real semiring (Section 4.3).
func SumAgg() Agg {
	return Agg{Kind: "sum", Build: func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node { return g.SpMM("Z", psi, x) }}
}

// MaxAgg aggregates with the tropical-max semiring.
func MaxAgg() Agg { return semiringAgg("max") }

// MinAgg aggregates with the tropical-min semiring.
func MinAgg() Agg { return semiringAgg("min") }

// MeanAgg aggregates with the ℝ² averaging semiring.
func MeanAgg() Agg { return semiringAgg("mean") }

func semiringAgg(kind string) Agg {
	return Agg{Kind: kind, Build: func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node {
		return g.SpMMSemiring("Z", psi, x, kind)
	}}
}

// CustomAgg wraps a user ⊕ fragment.
func CustomAgg(kind string, build func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node) Agg {
	return Agg{Kind: kind, Build: build}
}

// LinearPhi returns the projection update Φ(X) = X·W.
func LinearPhi(w *tensor.Dense) Phi {
	phi := MLPPhi(Identity(), w)
	phi.Kind = "linear"
	return phi
}

// MLPPhi returns an MLP update: alternating projections and non-linearities
// (the GIN-style Φ of Section 4.4). The matrices become the layer's
// parameters W1, W2, ….
func MLPPhi(act Activation, ws ...*tensor.Dense) Phi {
	params := make([]*Param, len(ws))
	for i, w := range ws {
		params[i] = NewParam(fmt.Sprintf("W%d", i+1), w)
	}
	return Phi{Kind: "mlp/" + planAct(act).Name, Params: params,
		Build: func(g *fuse.Graph, x *fuse.Node) *fuse.Node {
			for i, p := range params {
				x = g.MM(fmt.Sprintf("phi%d", i+1), x, p.Node(g))
				if i < len(params)-1 {
					x = g.Sigma(fmt.Sprintf("phiAct%d", i+1), x, planAct(act))
				}
			}
			return x
		}}
}

// CustomPhi wraps a user Φ fragment reading the given parameters.
func CustomPhi(kind string, build func(g *fuse.Graph, x *fuse.Node) *fuse.Node, params ...*Param) Phi {
	return Phi{Kind: kind, Params: params, Build: build}
}

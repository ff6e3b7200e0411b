// Package gnn implements the paper's primary contribution: global tensor
// formulations of attentional GNN models — vanilla attention (VA), AGNN,
// and GAT — for both inference (Section 4) and training (Section 5),
// together with the C-GNN special case (GCN), a programmable Ψ/⊕/Φ model
// builder (Eq. 1), activations, losses, optimizers, and a full-batch
// training loop.
//
// Every layer realizes H^{l+1} = σ(Z^l) with Z^l = (Φ∘⊕)(Ψ(A, H^l), H^l)
// and a backward pass G^{l-1} = σ'(Z^{l-1}) ⊙ Γ^l derived from the paper's
// tensor formulations. The VA backward pass follows Eq. (11)–(13) verbatim;
// AGNN and GAT compose the same vector-Jacobian building blocks (SDDMM,
// SpMM, sparse softmax, virtual-matrix score kernels).
package gnn

import "math"

// Activation is an element-wise non-linearity σ with its derivative σ',
// both taking the pre-activation value.
type Activation struct {
	Name string
	F    func(float64) float64
	DF   func(float64) float64
}

// ReLU is max(0, x).
func ReLU() Activation {
	return Activation{
		Name: "relu",
		F:    func(x float64) float64 { return math.Max(0, x) },
		DF: func(x float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		},
	}
}

// LeakyReLU is x for x ≥ 0 and slope·x otherwise (GAT's score
// non-linearity, also usable as a layer activation).
func LeakyReLU(slope float64) Activation {
	return Activation{
		Name: "leaky-relu",
		F: func(x float64) float64 {
			if x < 0 {
				return slope * x
			}
			return x
		},
		DF: func(x float64) float64 {
			if x < 0 {
				return slope
			}
			return 1
		},
	}
}

// ELU is x for x ≥ 0 and α(eˣ−1) otherwise.
func ELU(alpha float64) Activation {
	return Activation{
		Name: "elu",
		F: func(x float64) float64 {
			if x < 0 {
				return alpha * (math.Exp(x) - 1)
			}
			return x
		},
		DF: func(x float64) float64 {
			if x < 0 {
				return alpha * math.Exp(x)
			}
			return 1
		},
	}
}

// Sigmoid is 1/(1+e⁻ˣ).
func Sigmoid() Activation {
	f := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	return Activation{
		Name: "sigmoid",
		F:    f,
		DF:   func(x float64) float64 { s := f(x); return s * (1 - s) },
	}
}

// Tanh is the hyperbolic tangent.
func Tanh() Activation {
	return Activation{
		Name: "tanh",
		F:    math.Tanh,
		DF:   func(x float64) float64 { t := math.Tanh(x); return 1 - t*t },
	}
}

// Identity is the no-op activation used on final (logit) layers.
func Identity() Activation {
	return Activation{
		Name: "identity",
		F:    func(x float64) float64 { return x },
		DF:   func(float64) float64 { return 1 },
	}
}

// ActivationByName resolves an activation by its Name; LeakyReLU and ELU
// use their conventional default parameters (0.01 and 1).
func ActivationByName(name string) (Activation, bool) {
	switch name {
	case "relu":
		return ReLU(), true
	case "leaky-relu":
		return LeakyReLU(0.01), true
	case "elu":
		return ELU(1), true
	case "sigmoid":
		return Sigmoid(), true
	case "tanh":
		return Tanh(), true
	case "identity", "":
		return Identity(), true
	}
	return Activation{}, false
}

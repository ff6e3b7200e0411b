// Programmability: assemble custom A-GNN models from the Ψ/⊕/Φ pieces of
// the paper's generic global formulation (Eq. 1) — including semiring
// aggregations (max / min / average over tropical and ℝ² semirings,
// Section 4.3) and an MLP update (GIN-style Φ).
//
//	go run ./examples/custom_model
package main

import (
	"fmt"
	"math/rand"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/kernels"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func main() {
	a := graph.Kronecker(9, 6, 3) // 512 vertices
	n := a.Rows
	rng := rand.New(rand.NewSource(4))
	h := tensor.RandN(n, 8, 1, rng)
	w := tensor.GlorotInit(8, 8, rng)

	// 1. Dot-product attention with softmax (VA + sm) and the standard sum
	//    aggregation — assembled, not hard-coded.
	vaLike := gnn.NewGenericLayer(a, gnn.GenericLayer{
		Psi:      gnn.SoftmaxDotPsi(),
		Agg:      gnn.SumAgg(),
		Phi:      gnn.LinearPhi(w),
		Act:      gnn.ReLU(),
		PhiFirst: true, // Φ∘⊕ order flexibility of Section 4.4
	})
	out := vaLike.Forward(h, false)
	fmt.Printf("softmax-dot attention + sum aggregation: %d×%d, ‖out‖=%.3f\n",
		out.Rows, out.Cols, out.FrobeniusNorm())

	// 2. The same attention with *max* aggregation — a sparse-dense product
	//    over the tropical-max semiring (ℝ∪{−∞}, max, +, −∞, 0).
	maxModel := gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gnn.SoftmaxDotPsi(), Agg: gnn.MaxAgg(), Act: gnn.ReLU()})
	out = maxModel.Forward(h, false)
	fmt.Printf("tropical-max aggregation:                %d×%d, ‖out‖=%.3f\n",
		out.Rows, out.Cols, out.FrobeniusNorm())

	// 3. Average aggregation over the paper's ℝ² tuple semiring: tuples
	//    (value, weight) merged by weighted mean.
	meanModel := gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gnn.AdjacencyPsi(), Agg: gnn.MeanAgg()})
	out = meanModel.Forward(h, false)
	fmt.Printf("ℝ²-semiring average aggregation:         %d×%d, ‖out‖=%.3f\n",
		out.Rows, out.Cols, out.FrobeniusNorm())

	// 4. A brand-new Ψ: distance-decayed attention exp(−‖h_i − h_j‖²),
	//    written directly against the fused virtual-matrix kernel — the
	//    score matrix is never materialized, exactly like GAT's C.
	gaussianPsi := func(a *sparse.CSR, h *tensor.Dense) *sparse.CSR {
		norms := tensor.RowNorms(h)
		score := func(i, j int32) float64 {
			// ‖h_i − h_j‖² = ‖h_i‖² + ‖h_j‖² − 2·h_i·h_j
			dot := tensor.Dot(h.Row(int(i)), h.Row(int(j)))
			d2 := norms[i]*norms[i] + norms[j]*norms[j] - 2*dot
			return -d2
		}
		return kernels.FusedSoftmaxScores(a, score)
	}
	gaussModel := gnn.NewGenericLayer(a, gnn.GenericLayer{
		Psi: gnn.CustomPsi(gaussianPsi),
		Agg: gnn.SumAgg(),
		// GIN-style MLP update Φ: two projections with a ReLU between.
		Phi: gnn.MLPPhi(gnn.ReLU(), tensor.GlorotInit(8, 16, rng), tensor.GlorotInit(16, 8, rng)),
		Act: gnn.Tanh(),
	})
	out = gaussModel.Forward(h, false)
	fmt.Printf("custom Gaussian-kernel attention + MLP Φ: %d×%d, ‖out‖=%.3f\n",
		out.Rows, out.Cols, out.FrobeniusNorm())

	// 5. Stack heterogeneous layers into one model.
	stack := &gnn.Model{Layers: []gnn.Layer{vaLike, gaussModel, meanModel}}
	out = stack.Forward(h, false)
	fmt.Printf("3-layer heterogeneous stack:             %d×%d, ‖out‖=%.3f\n",
		out.Rows, out.Cols, out.FrobeniusNorm())
}

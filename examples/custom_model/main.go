// Programmability: assemble custom A-GNN models from the Ψ/⊕/Φ pieces of
// the paper's generic global formulation (Eq. 1) — including semiring
// aggregations (max / min / average over tropical and ℝ² semirings,
// Section 4.3), an MLP update (GIN-style Φ) and a Ψ of one's own, written as
// a DAG fragment and trained through plan autodiff.
//
//	go run ./examples/custom_model
package main

import (
	"fmt"
	"math/rand"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
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

	// 4. A brand-new Ψ: distance-decayed attention sm(A ⊙ γ·‖h_i − h_j‖²)
	//    with a learnable bandwidth γ, written as a DAG fragment over the
	//    builder's virtual nodes — the score matrix is never materialized,
	//    exactly like GAT's C, and the fragment is all there is to write:
	//    fusion, the backward pass, float32 and the engines follow from it.
	gamma := gnn.NewScalarParam("gamma", -1)
	gaussianPsi := gnn.CustomPsi("gaussian", func(g *fuse.Graph, h *fuse.Node) *fuse.Node {
		d2 := g.SqDistScores("D2", h, h)
		return g.Softmax("Psi", g.Mask("S", g.ScaleScores("gammaD2", d2, gamma.Node(g)), false))
	}, gamma)
	gaussModel := gnn.NewGenericLayer(a, gnn.GenericLayer{
		Psi: gaussianPsi,
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

	// 6. The custom piece trains: γ and the MLP weights, through the derived
	//    backward.
	target := tensor.RandN(n, 8, 0.5, rng)
	hist, err := (&gnn.Model{Layers: []gnn.Layer{gaussModel}}).Train(h, &gnn.MSELoss{Target: target}, gnn.NewAdam(0.02), 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Gaussian Ψ, 10 steps of plan autodiff:   loss %.4f → %.4f, γ %.3f\n",
		hist[0], hist[len(hist)-1], gamma.Scalar())
}

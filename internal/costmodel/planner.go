package costmodel

import "fmt"

// This file plays the role of the paper's SOAP stage (Figure 4): given the
// problem parameters, it derives the execution plan — which formulation to
// run and on what layout — by minimizing the modeled per-processor
// communication volume. The paper derives the parametric distribution
// automatically from the data-access sets; here the candidate space is the
// three implemented layouts and the closed-form volumes of Section 7.

// Layout identifies an implemented execution strategy.
type Layout string

// Layouts.
const (
	LayoutSingle  Layout = "single-node"    // p == 1
	LayoutGrid2D  Layout = "global-2d-grid" // distgnn.GlobalEngine
	LayoutRows1D  Layout = "global-1d-rows" // the p×1 grid, distgnn.NewRowGrid (no replication)
	LayoutLocal1D Layout = "local-1d-halo"  // distgnn.LocalEngine
)

// Plan is the chosen execution strategy with its predicted per-rank volume.
type Plan struct {
	Layout         Layout
	GridSide       int     // √p for LayoutGrid2D
	PredictedWords float64 // per processor per layer
	Alternatives   map[Layout]float64
}

// RowsVolume is the 1D A-stationary layout's per-layer volume, exactly as
// the p×1 grid moves it: the ring allgather of one n×k feature crossing,
// p−1 blocks of ⌈n/p⌉·k words sent per rank — Θ(nk) whatever p. A layer
// whose column side reads a vector as well (GAT's v, AGNN's norms) gathers
// (p−1)·⌈n/p⌉ words more per vector.
func RowsVolume(n, k, p int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) * float64((n+p-1)/p) * float64(k)
}

// ChoosePlan picks the minimum-volume layout for an L-layer A-GNN on a
// graph with n vertices, maximum degree d, feature width k, and p
// processors. The 2D grid requires a perfect-square p; when p is not
// square, the planner evaluates the largest square p' ≤ p and scales the
// prediction accordingly (idle ranks are wasted, which the volume reflects
// by using p').
func ChoosePlan(n, k, d, p int) Plan {
	if p <= 1 {
		return Plan{Layout: LayoutSingle, Alternatives: map[Layout]float64{LayoutSingle: 0}}
	}
	side := 1
	for (side+1)*(side+1) <= p {
		side++
	}
	pSquare := side * side

	alts := map[Layout]float64{
		LayoutGrid2D:  GlobalVolume(n, k, pSquare),
		LayoutRows1D:  RowsVolume(n, k, p),
		LayoutLocal1D: LocalVolume(n, k, d, p),
	}
	best := LayoutGrid2D
	for l, v := range alts {
		if v < alts[best] {
			best = l
		}
	}
	return Plan{Layout: best, GridSide: side, PredictedWords: alts[best], Alternatives: alts}
}

// String renders the plan for reporting.
func (p Plan) String() string {
	if p.Layout == LayoutSingle {
		return "single-node (p=1, no communication)"
	}
	return fmt.Sprintf("%s (predicted %.0f words/rank/layer)", p.Layout, p.PredictedWords)
}

package gnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// permute returns P·A·Pᵀ and P·H for a vertex permutation perm
// (perm[new] = old).
func permuteGraph(a *sparse.CSR, perm []int) *sparse.CSR {
	inv := make([]int32, len(perm))
	for newID, oldID := range perm {
		inv[oldID] = int32(newID)
	}
	c := sparse.NewCOO(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c.AppendFrom(inv[i], inv[a.Col[p]], a.Val, p)
		}
	}
	return sparse.FromCOO(c)
}

func permuteRows(h *tensor.Dense, perm []int) *tensor.Dense {
	out := tensor.NewDense(h.Rows, h.Cols)
	for newID, oldID := range perm {
		copy(out.Row(newID), h.Row(oldID))
	}
	return out
}

// TestPermutationEquivariance: GNN layers must be permutation-equivariant —
// relabeling the vertices permutes the outputs identically. This is a
// fundamental property-based check on all four global formulations, run
// via testing/quick over random permutations.
func TestPermutationEquivariance(t *testing.T) {
	for _, kind := range []Kind{VA, AGNN, GAT, GCN} {
		kind := kind
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 8 + rng.Intn(12)
			a := testGraph(n, seed)
			h := tensor.RandN(n, 4, 1, rng)
			m, err := New(Config{Model: kind, Layers: 2, InDim: 4, HiddenDim: 5,
				OutDim: 3, Activation: Tanh(), SelfLoops: true, Seed: seed}, a)
			if err != nil {
				return false
			}
			out := m.Forward(h, false)

			perm := rng.Perm(n)
			// Rebind the same weights onto the permuted graph. The layer's
			// stored adjacency already includes the preprocessing, so
			// permute that one.
			procA, err := m.Adjacency()
			if err != nil {
				return false
			}
			pm, err := RebindAdjacency(m, permuteGraph(procA, perm))
			if err != nil {
				return false
			}
			pout := pm.Forward(permuteRows(h, perm), false)
			return pout.ApproxEqual(permuteRows(out, perm), 1e-9)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatalf("%v not permutation-equivariant: %v", kind, err)
		}
	}
}

// TestAttentionRowsAreStochastic: Ψ = sm(·) rows of AGNN and GAT sum to 1
// over non-empty neighborhoods. The plans never expose Ψ (inference plans
// never even store it), so the property is observed through the output:
// with H·W constant across vertices — a ones column in H, W reading only
// that column — Z = Ψ·(H·W) must reproduce that constant row wherever the
// neighborhood is non-empty, in both modes.
func TestAttentionRowsAreStochastic(t *testing.T) {
	a := testGraph(25, 100)
	rng := rand.New(rand.NewSource(101))
	h := tensor.RandN(25, 4, 1, rng)
	for i := 0; i < h.Rows; i++ {
		h.Set(i, 3, 1)
	}
	gat := NewGATLayer(a, 4, 3, Identity(), 0.2, rng)
	agnn := NewAGNNLayer(a, 4, 3, Identity(), rng)
	for _, l := range []Layer{gat, agnn} {
		w := l.Params()[0].Value
		for i := 0; i < 3; i++ {
			for j := 0; j < w.Cols; j++ {
				w.Set(i, j, 0)
			}
		}
		for _, training := range []bool{true, false} {
			out := l.Forward(h, training)
			for i := 0; i < out.Rows; i++ {
				if a.RowNNZ(i) == 0 {
					continue
				}
				for j, v := range out.Row(i) {
					if math.Abs(v-w.At(3, j)) > 1e-12 {
						t.Fatalf("%s training=%v: Ψ row %d does not sum to 1 (Z[%d,%d]=%v, want %v)",
							l.Name(), training, i, i, j, v, w.At(3, j))
					}
				}
			}
		}
	}
}

// TestGradientAccumulation: two Backward passes without ZeroGrad must
// accumulate, and equal exactly twice a single pass.
func TestGradientAccumulation(t *testing.T) {
	a := testGraph(12, 102)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2,
		Activation: Tanh(), Seed: 103}, a)
	if err != nil {
		t.Fatal(err)
	}
	h := tensor.RandN(12, 3, 1, rand.New(rand.NewSource(104)))
	loss := &MSELoss{Target: tensor.RandN(12, 2, 1, rand.New(rand.NewSource(105)))}

	run := func() {
		out := m.Forward(h, true)
		_, g := loss.Eval(out)
		m.Backward(g)
	}
	m.ZeroGrad()
	run()
	single := make([]*tensor.Dense, 0)
	for _, p := range m.Params() {
		single = append(single, p.Grad.Clone())
	}
	m.ZeroGrad()
	run()
	run()
	for i, p := range m.Params() {
		if !p.Grad.ApproxEqual(single[i].Scale(2), 1e-12) {
			t.Fatalf("gradient of %s did not accumulate to 2×", p.Name)
		}
	}
}

// TestIsolatedVertexHandling: vertices without neighbors must produce zero
// aggregation (not NaN) in every model, forward and backward.
func TestIsolatedVertexHandling(t *testing.T) {
	// Star graph plus two isolated vertices; no self loops added.
	c := sparse.NewCOO(6, 6, 6)
	c.Append(0, 1)
	c.Append(1, 0)
	c.Append(0, 2)
	c.Append(2, 0)
	c.Append(1, 2)
	c.Append(2, 1)
	a := sparse.FromCOO(c) // vertices 3,4,5 isolated
	h := tensor.RandN(6, 3, 1, rand.New(rand.NewSource(106)))
	for _, kind := range []Kind{VA, AGNN, GAT, GCN} {
		m, err := New(Config{Model: kind, Layers: 2, InDim: 3, HiddenDim: 3,
			OutDim: 3, Activation: Tanh(), SelfLoops: false, Seed: 107}, a)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Forward(h, true)
		for _, v := range out.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v produced non-finite output with isolated vertices", kind)
			}
		}
		_, g := (&MSELoss{Target: tensor.NewDense(6, 3)}).Eval(out)
		in := m.Backward(g)
		for _, v := range in.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v produced non-finite gradients with isolated vertices", kind)
			}
		}
	}
}

// TestZeroFeatureRobustness: all-zero input features (zero norms for AGNN)
// must not produce NaNs anywhere.
func TestZeroFeatureRobustness(t *testing.T) {
	a := testGraph(10, 108)
	h := tensor.NewDense(10, 3)
	for _, kind := range []Kind{VA, AGNN, GAT} {
		m, err := New(Config{Model: kind, Layers: 2, InDim: 3, HiddenDim: 3,
			OutDim: 2, Activation: ReLU(), SelfLoops: true, Seed: 109}, a)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Forward(h, true)
		for _, v := range out.Data {
			if math.IsNaN(v) {
				t.Fatalf("%v produced NaN on zero features", kind)
			}
		}
		_, g := (&MSELoss{Target: tensor.NewDense(10, 2)}).Eval(out)
		in := m.Backward(g)
		for _, v := range in.Data {
			if math.IsNaN(v) {
				t.Fatalf("%v produced NaN gradient on zero features", kind)
			}
		}
	}
}

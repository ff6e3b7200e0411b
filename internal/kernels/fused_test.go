package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func randDense(r, c int, rng *rand.Rand) *tensor.Dense {
	m := tensor.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randPattern(n int, density float64, rng *rand.Rand) *sparse.CSR {
	c := sparse.NewCOO(n, n, int(density*float64(n*n))+n)
	for i := 0; i < n; i++ {
		c.Append(int32(i), int32(rng.Intn(n)))
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				c.Append(int32(i), int32(j))
			}
		}
	}
	return sparse.FromCOO(c)
}

func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// sample evaluates f on every stored entry of pat — the sampled scores
// A ⊙ C that the fused kernels normalize.
func sample(pat *sparse.CSR, f ScoreFunc) *sparse.CSR {
	vals := make([]float64, pat.NNZ())
	for i := 0; i < pat.Rows; i++ {
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			vals[p] = f(int32(i), pat.Col[p])
		}
	}
	return pat.WithValues(vals)
}

func TestFusedScoresMatchesExplicitComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20
	pat := randPattern(n, 0.2, rng)
	u, v := randVec(n, rng), randVec(n, rng)
	slope := 0.2
	got := sample(pat, GATEdgeScore(u, v, slope))
	// Explicit: C = u·1ᵀ + 1·vᵀ, lrelu, Hadamard with pattern.
	c := tensor.NewDense(n, n)
	for i := range n {
		for j := range n {
			if x := u[i] + v[j]; x < 0 {
				c.Set(i, j, slope*x)
			} else {
				c.Set(i, j, x)
			}
		}
	}
	gd := got.ToDense()
	pd := pat.ToDense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if pd.At(i, j) != 0 {
				want = c.At(i, j)
			}
			if math.Abs(gd.At(i, j)-want) > 1e-12 {
				t.Fatalf("fused GAT score (%d,%d) = %v want %v", i, j, gd.At(i, j), want)
			}
		}
	}
}

func TestAGNNEdgeScoreIsCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k := 12, 5
	pat := randPattern(n, 0.3, rng)
	h := randDense(n, k, rng)
	norms := tensor.RowNorms(h)
	beta := 1.7
	got := sample(pat, AGNNEdgeScore(h, norms, beta))
	// Cosine similarity is in [-1, 1]; scaled by β.
	for p := range got.Val {
		if math.Abs(got.Val[p]) > beta+1e-12 {
			t.Fatalf("cosine score %v exceeds β", got.Val[p])
		}
	}
	// Cross-check one row against the unfused SDDMM + ScaleRowsCols route.
	s := sparse.SDDMM(pat, h, h)
	inv := make([]float64, n)
	for i := range inv {
		inv[i] = 1 / norms[i]
	}
	want := s.ScaleRowsCols(inv, inv).Scale(beta)
	for p := range got.Val {
		if math.Abs(got.Val[p]-want.Val[p]) > 1e-12 {
			t.Fatal("AGNN fused score != unfused composition")
		}
	}
}

func TestAGNNEdgeScoreZeroNorm(t *testing.T) {
	pat := sparse.Identity(2)
	h := tensor.NewDense(2, 3) // all-zero features → zero norms
	got := sample(pat, AGNNEdgeScore(h, tensor.RowNorms(h), 1))
	for _, v := range got.Val {
		if v != 0 {
			t.Fatal("zero-norm rows must score 0, not NaN")
		}
	}
}

func TestFusedSoftmaxApplyMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		k := 1 + r.Intn(8)
		pat := randPattern(n, 0.2, r)
		h := randDense(n, k, r)
		sf := AGNNEdgeScore(h, tensor.RowNorms(h), 1.5)
		got := FusedSoftmaxApply(pat, sf, h)
		// Ψ materialized: the sampled scores, their row softmax, the SpMM.
		psi := sample(pat, sf)
		sparse.RowSoftmaxInto(psi.Val, psi)
		want := tensor.NewDense(n, k)
		psi.MulDenseInto(want, h)
		return got.ApproxEqual(want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestFusedSoftmaxApplyEmptyRows(t *testing.T) {
	c := sparse.NewCOO(3, 3, 1)
	c.Append(0, 1)
	pat := sparse.FromCOO(c)
	h := randDense(3, 4, rand.New(rand.NewSource(6)))
	out := FusedSoftmaxApply(pat, AGNNEdgeScore(h, tensor.RowNorms(h), 1), h)
	for j := 0; j < 4; j++ {
		if out.At(1, j) != 0 || out.At(2, j) != 0 {
			t.Fatal("rows without neighbors must stay zero")
		}
	}
}

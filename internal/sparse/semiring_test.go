package sparse

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/semiring"
	"agnn/internal/tensor"
)

// The dense-matrix faces of SpMMSemiring the tests below (and the plan op
// fuse.opSemiring, which is pinned to their bits) are stated in.

// MulDenseMin computes per-feature min aggregation over neighborhoods using
// the tropical-min semiring: Y[i,c] = min_{j ∈ N(i)} X[j,c]. Rows with no
// neighbors yield +Inf.
func (s *CSR) MulDenseMin(x *tensor.Dense) *tensor.Dense {
	sr := semiring.TropicalMin()
	out := SpMMSemiring(s, x.Data, x.Cols, sr, func(float64) float64 { return 0 })
	return tensor.NewDenseFrom(s.Rows, x.Cols, out)
}

// MulDenseMax computes per-feature max aggregation via the tropical-max
// semiring: Y[i,c] = max_{j ∈ N(i)} X[j,c]. Rows with no neighbors yield
// -Inf.
func (s *CSR) MulDenseMax(x *tensor.Dense) *tensor.Dense {
	sr := semiring.TropicalMax()
	out := SpMMSemiring(s, x.Data, x.Cols, sr, func(float64) float64 { return 0 })
	return tensor.NewDenseFrom(s.Rows, x.Cols, out)
}

// MulDenseMean computes edge-weighted average aggregation via the paper's
// ℝ² averaging semiring: Y[i,c] = Σ_j S_ij·X[j,c] / Σ_j S_ij. Rows with no
// neighbors yield 0.
func (s *CSR) MulDenseMean(x *tensor.Dense) *tensor.Dense {
	sr := semiring.Average()
	lifted := make([]semiring.Pair, len(x.Data))
	for i, v := range x.Data {
		lifted[i] = semiring.LiftFeature(v)
	}
	pairs := SpMMSemiring(s, lifted, x.Cols, sr, semiring.LiftEdge)
	out := tensor.NewDense(s.Rows, x.Cols)
	for i, p := range pairs {
		out.Data[i] = p.V
	}
	return out
}

// MulDenseReal computes Y = S·X through the generic semiring kernel with
// the real semiring. It must agree with the specialized MulDense; the
// difference in throughput is the "generic vs specialized" ablation of
// DESIGN.md.
func (s *CSR) MulDenseReal(x *tensor.Dense) *tensor.Dense {
	sr := semiring.Real()
	out := SpMMSemiring(s, x.Data, x.Cols, sr, func(v float64) float64 { return v })
	return tensor.NewDenseFrom(s.Rows, x.Cols, out)
}

// threeStarGraph: vertex 0 has neighbors 1, 2, 3.
func threeStarGraph() *CSR {
	c := NewCOO(4, 4, 3)
	c.Append(0, 1)
	c.Append(0, 2)
	c.Append(0, 3)
	return FromCOO(c)
}

func TestMulDenseMinMax(t *testing.T) {
	a := threeStarGraph()
	h := tensor.NewDenseFrom(4, 2, []float64{
		0, 0, // vertex 0 (ignored)
		3, -1, // vertex 1
		5, 2, // vertex 2
		-4, 7, // vertex 3
	})
	mn := a.MulDenseMin(h)
	if mn.At(0, 0) != -4 || mn.At(0, 1) != -1 {
		t.Fatalf("min aggregation = %v %v", mn.At(0, 0), mn.At(0, 1))
	}
	mx := a.MulDenseMax(h)
	if mx.At(0, 0) != 5 || mx.At(0, 1) != 7 {
		t.Fatalf("max aggregation = %v %v", mx.At(0, 0), mx.At(0, 1))
	}
	// Neighborless vertices: identity elements (∞ / -∞), per the tropical
	// semiring definition with off-diagonal zeros mapped to el₁.
	if !math.IsInf(mn.At(1, 0), 1) || !math.IsInf(mx.At(1, 0), -1) {
		t.Fatal("empty neighborhoods must yield semiring identities")
	}
}

func TestMulDenseMean(t *testing.T) {
	a := threeStarGraph()
	h := tensor.NewDenseFrom(4, 1, []float64{0, 3, 5, -2})
	m := a.MulDenseMean(h)
	if math.Abs(m.At(0, 0)-2) > 1e-12 {
		t.Fatalf("mean aggregation = %v, want 2", m.At(0, 0))
	}
	if m.At(1, 0) != 0 {
		t.Fatal("empty neighborhood mean must be 0")
	}
}

func TestMulDenseMeanWeighted(t *testing.T) {
	c := NewCOO(2, 2, 2)
	c.AppendVal(0, 0, 1)
	c.AppendVal(0, 1, 3)
	a := FromCOO(c)
	h := tensor.NewDenseFrom(2, 1, []float64{10, 2})
	m := a.MulDenseMean(h)
	// (1·10 + 3·2)/(1+3) = 4
	if math.Abs(m.At(0, 0)-4) > 1e-12 {
		t.Fatalf("weighted mean = %v, want 4", m.At(0, 0))
	}
}

func TestMulDenseRealMatchesSpecialized(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	s := randSparse(60, 60, 0.1, rng)
	x := randDense(60, 7, rng)
	if !s.MulDenseReal(x).ApproxEqual(s.MulDense(x), 1e-12) {
		t.Fatal("generic real-semiring SpMM != specialized SpMM")
	}
}

func TestSpMMSemiringBoolean(t *testing.T) {
	// One BFS step over the boolean semiring: frontier {0} reaches {1,2}.
	c := NewCOO(3, 3, 2)
	c.Append(1, 0)
	c.Append(2, 0)
	a := FromCOO(c)
	sr := semiring.Boolean()
	frontier := []bool{true, false, false}
	next := SpMMSemiring(a, frontier, 1, sr, func(float64) bool { return true })
	if next[0] || !next[1] || !next[2] {
		t.Fatalf("boolean step = %v", next)
	}
}

func TestSpMMSemiringTropicalShortestPath(t *testing.T) {
	// One relaxation step of min-plus: dist' = min over edges (w + dist).
	c := NewCOO(2, 2, 1)
	c.AppendVal(0, 1, 2.5) // edge 0←1 with weight 2.5
	a := FromCOO(c)
	sr := semiring.TropicalMin()
	dist := []float64{math.Inf(1), 1.0}
	next := SpMMSemiring(a, dist, 1, sr, func(w float64) float64 { return w })
	if next[0] != 3.5 {
		t.Fatalf("min-plus relaxation = %v, want 3.5", next[0])
	}
	if !math.IsInf(next[1], 1) {
		t.Fatal("vertex with no in-edges keeps ∞")
	}
}

func TestSpMMSemiringLengthPanics(t *testing.T) {
	a := Identity(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpMMSemiring(a, []float64{1, 2}, 1, semiring.Real(), func(v float64) float64 { return v })
}

func TestMeanMatchesRealRatio(t *testing.T) {
	// Property: mean aggregation equals (S·X) ⊘ rowsums(S) wherever the row
	// sum is non-zero.
	rng := rand.New(rand.NewSource(31))
	s := randPattern(25, 25, 0.2, rng)
	x := randDense(25, 3, rng)
	mean := s.MulDenseMean(x)
	sum := s.MulDense(x)
	deg := s.RowSums()
	for i := 0; i < 25; i++ {
		if deg[i] == 0 {
			continue
		}
		for j := 0; j < 3; j++ {
			if math.Abs(mean.At(i, j)-sum.At(i, j)/deg[i]) > 1e-9 {
				t.Fatalf("mean(%d,%d) = %v, want %v", i, j, mean.At(i, j), sum.At(i, j)/deg[i])
			}
		}
	}
}

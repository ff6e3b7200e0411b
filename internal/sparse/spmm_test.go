package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"agnn/internal/tensor"
)

func randDense(r, c int, rng *rand.Rand) *tensor.Dense {
	m := tensor.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// mulDense is MulDenseInto's result in a new matrix.
func mulDense(s *CSR, x *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(s.Rows, x.Cols)
	s.MulDenseInto(out, x)
	return out
}

func TestSpMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {50, 40, 16}, {300, 300, 8}} {
		s := randSparse(dims[0], dims[1], 0.15, rng)
		x := randDense(dims[1], dims[2], rng)
		got := mulDense(s, x)
		want := tensor.MM(s.ToDense(), x)
		if !got.ApproxEqual(want, 1e-10) {
			t.Fatalf("SpMM %v mismatch %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestSpMMEmptyRows(t *testing.T) {
	c := NewCOO(4, 4, 1)
	c.AppendVal(1, 2, 3)
	s := FromCOO(c)
	x := randDense(4, 5, rand.New(rand.NewSource(12)))
	got := mulDense(s, x)
	for j := 0; j < 5; j++ {
		if got.At(0, j) != 0 || got.At(2, j) != 0 || got.At(3, j) != 0 {
			t.Fatal("empty rows must yield zeros")
		}
		if math.Abs(got.At(1, j)-3*x.At(2, j)) > 1e-15 {
			t.Fatal("single-entry row wrong")
		}
	}
}

func TestSDDMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pat := randPattern(25, 30, 0.1, rng)
	x := randDense(25, 8, rng)
	y := randDense(30, 8, rng)
	got := SDDMM(pat, x, y).ToDense()
	// Reference: pattern ⊙ (X·Yᵀ).
	full := tensor.MMT(x, y)
	want := tensor.NewDense(25, 30)
	pd := pat.ToDense()
	for i := 0; i < 25; i++ {
		for j := 0; j < 30; j++ {
			if pd.At(i, j) != 0 {
				want.Set(i, j, full.At(i, j))
			}
		}
	}
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("SDDMM mismatch %g", got.MaxAbsDiff(want))
	}
}

func TestSDDMMShapePanics(t *testing.T) {
	pat := Identity(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SDDMM(pat, tensor.NewDense(3, 2), tensor.NewDense(3, 5))
}

func TestSpMMSDDMMCompositionProperty(t *testing.T) {
	// Property: for random sparse A and dense H,
	// SDDMM(A,H,H)·H == (A ⊙ H·Hᵀ)·H computed densely — the VA Ψ-then-
	// aggregate pipeline.
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		k := 1 + r.Intn(6)
		a := randPattern(n, n, 0.25, r)
		h := randDense(n, k, r)
		got := mulDense(SDDMM(a, h, h), h)
		dense := a.ToDense().Hadamard(tensor.MMT(h, h))
		want := tensor.MM(dense, h)
		return got.ApproxEqual(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMShapePanics(t *testing.T) {
	s := Identity(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.MulDenseInto(tensor.NewDense(3, 2), tensor.NewDense(4, 2))
}

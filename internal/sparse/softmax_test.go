package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := randSparse(40, 40, 0.15, rng)
	p := RowSoftmax(s)
	sums := p.RowSums()
	for i, v := range sums {
		if s.RowNNZ(i) == 0 {
			if v != 0 {
				t.Fatalf("empty row %d sums to %v", i, v)
			}
			continue
		}
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("row %d softmax sums to %v", i, v)
		}
	}
}

func TestRowSoftmaxMatchesUnstable(t *testing.T) {
	// Stabilized kernel must be algebraically identical to the literal
	// global formulation exp(X) ⊘ rs_n(exp(X)) for moderate values.
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		s := randSparse(n, n, 0.3, r)
		a := RowSoftmax(s)
		b := RowSoftmaxUnstable(s)
		for p := range a.Val {
			if math.Abs(a.Val[p]-b.Val[p]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRowSoftmaxStability(t *testing.T) {
	// Large scores overflow the unstable version but not the stable one.
	c := NewCOO(1, 2, 2)
	c.AppendVal(0, 0, 1000)
	c.AppendVal(0, 1, 999)
	s := FromCOO(c)
	p := RowSoftmax(s)
	if math.IsNaN(p.Val[0]) || math.IsInf(p.Val[0], 0) {
		t.Fatal("stable softmax produced non-finite value")
	}
	want0 := 1 / (1 + math.Exp(-1))
	if math.Abs(p.Val[0]-want0) > 1e-12 {
		t.Fatalf("softmax(1000,999)[0] = %v want %v", p.Val[0], want0)
	}
}

func TestRowSoftmaxUniformScores(t *testing.T) {
	// Equal scores → uniform attention = 1/degree.
	c := NewCOO(2, 3, 4)
	c.AppendVal(0, 0, 2.5)
	c.AppendVal(0, 1, 2.5)
	c.AppendVal(0, 2, 2.5)
	c.AppendVal(1, 1, -7)
	s := FromCOO(c)
	p := RowSoftmax(s)
	for q := 0; q < 3; q++ {
		if math.Abs(p.Val[q]-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p.Val[q])
		}
	}
	if p.Val[3] != 1 {
		t.Fatalf("single-neighbor softmax = %v", p.Val[3])
	}
}

func TestRowSoftmaxShiftInvariance(t *testing.T) {
	// softmax(x + c) == softmax(x) per row.
	rng := rand.New(rand.NewSource(22))
	s := randSparse(20, 20, 0.2, rng)
	shifted := s.Apply(func(v float64) float64 { return v + 123.456 })
	a, b := RowSoftmax(s), RowSoftmax(shifted)
	for p := range a.Val {
		if math.Abs(a.Val[p]-b.Val[p]) > 1e-12 {
			t.Fatal("softmax not shift-invariant")
		}
	}
}

// TestRowSoftmaxBackwardFiniteDifference checks RowSoftmaxBackwardInto
// against central finite differences of RowSoftmax.
func TestRowSoftmaxBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randSparse(8, 8, 0.4, rng)
	p := RowSoftmax(s)
	// Random upstream gradient on the same pattern.
	g := s.WithValues(make([]float64, s.NNZ()))
	for q := range g.Val {
		g.Val[q] = rng.NormFloat64()
	}
	back := p.WithValues(make([]float64, p.NNZ()))
	RowSoftmaxBackwardInto(back.Val, p, g)

	const eps = 1e-6
	for q := 0; q < s.NNZ(); q++ {
		plus := s.Clone()
		plus.Val[q] += eps
		minus := s.Clone()
		minus.Val[q] -= eps
		pp, pm := RowSoftmax(plus), RowSoftmax(minus)
		// loss = Σ g ⊙ softmax(s); d(loss)/d(s_q) numerically:
		num := 0.0
		for r := range g.Val {
			num += g.Val[r] * (pp.Val[r] - pm.Val[r]) / (2 * eps)
		}
		if math.Abs(num-back.Val[q]) > 1e-5 {
			t.Fatalf("softmax backward[%d] = %v, finite diff %v", q, back.Val[q], num)
		}
	}
}

func TestRowSoftmaxBackwardPatternMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randSparse(5, 5, 0.5, rng)
	b := randSparse(5, 5, 0.1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RowSoftmaxBackwardInto(make([]float64, a.NNZ()), a, b)
}

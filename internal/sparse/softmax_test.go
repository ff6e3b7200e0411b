package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// rowSoftmax is RowSoftmaxInto's result as a matrix of s's pattern.
func rowSoftmax(s *CSR) *CSR {
	vals := make([]float64, s.NNZ())
	RowSoftmaxInto(vals, s)
	return s.WithValues(vals)
}

func TestRowSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := randSparse(40, 40, 0.15, rng)
	p := rowSoftmax(s)
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

func TestRowSoftmaxStability(t *testing.T) {
	// Large scores overflow the unstable version but not the stable one.
	c := NewCOO(1, 2, 2)
	c.AppendVal(0, 0, 1000)
	c.AppendVal(0, 1, 999)
	s := FromCOO(c)
	p := rowSoftmax(s)
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
	p := rowSoftmax(s)
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
	a, b := rowSoftmax(s), rowSoftmax(shifted)
	for p := range a.Val {
		if math.Abs(a.Val[p]-b.Val[p]) > 1e-12 {
			t.Fatal("softmax not shift-invariant")
		}
	}
}

package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMM is the reference O(n³) product used to validate all fast paths.
func naiveMM(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for t := 0; t < a.Cols; t++ {
				s += a.At(i, t) * b.At(t, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMMAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range [][3]int{{1, 1, 1}, {2, 3, 4}, {16, 16, 16}, {65, 33, 17}, {300, 5, 300}} {
		a, b := randMat(d[0], d[1], rng), randMat(d[1], d[2], rng)
		if got, want := MM(a, b), naiveMM(a, b); !got.ApproxEqual(want, 1e-10) {
			t.Fatalf("MM %v mismatch: %g", d, got.MaxAbsDiff(want))
		}
	}
}

func TestMMTAndTMMAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range [][3]int{{2, 3, 4}, {33, 7, 12}, {100, 16, 100}} {
		a := randMat(d[0], d[1], rng)
		b := randMat(d[2], d[1], rng) // for MMT: a·bᵀ
		if got, want := MMT(a, b), naiveMM(a, b.T()); !got.ApproxEqual(want, 1e-10) {
			t.Fatalf("MMT mismatch: %g", got.MaxAbsDiff(want))
		}
		c := randMat(d[0], d[2], rng) // for TMM: aᵀ·c
		if got, want := TMM(a, c), naiveMM(a.T(), c); !got.ApproxEqual(want, 1e-9) {
			t.Fatalf("TMM mismatch: %g", got.MaxAbsDiff(want))
		}
	}
}

func TestMMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(20, 20, rng)
	id := NewDense(20, 20)
	for i := 0; i < 20; i++ {
		id.Set(i, i, 1)
	}
	if !MM(a, id).ApproxEqual(a, 0) || !MM(id, a).ApproxEqual(a, 0) {
		t.Fatal("A·I != A or I·A != A")
	}
}

func TestMMAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		k := 2 + r.Intn(12)
		m := 2 + r.Intn(12)
		q := 2 + r.Intn(12)
		a, b, c := randMat(n, k, r), randMat(k, m, r), randMat(m, q, r)
		left := MM(MM(a, b), c)
		right := MM(a, MM(b, c))
		return left.ApproxEqual(right, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMMTransposeProperty(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	rng := rand.New(rand.NewSource(7))
	a, b := randMat(13, 9, rng), randMat(9, 21, rng)
	if !MM(a, b).T().ApproxEqual(MM(b.T(), a.T()), 1e-10) {
		t.Fatal("(AB)ᵀ != BᵀAᵀ")
	}
}

func TestMMShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MM":  func() { MM(NewDense(2, 3), NewDense(4, 2)) },
		"MMT": func() { MMT(NewDense(2, 3), NewDense(4, 2)) },
		"TMM": func() { TMM(NewDense(2, 3), NewDense(4, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMatVecVecMat(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	got := MatVec(a, x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MatVec = %v", got)
	}
	y := []float64{1, 2}
	got = VecMat(y, a)
	if got[0] != 9 || got[1] != 12 || got[2] != 15 {
		t.Fatalf("VecMat = %v", got)
	}
}

func TestOuterAndAddOuter(t *testing.T) {
	x, y := []float64{1, 2}, []float64{3, 4, 5}
	want := NewDenseFrom(2, 3, []float64{3, 4, 5, 6, 8, 10}) // x·yᵀ
	m := NewDense(2, 3)
	AddOuterInPlace(m, 2, x, y)
	if !m.ApproxEqual(want.Scale(2), 0) {
		t.Fatalf("AddOuterInPlace = %v", m)
	}
}

func TestMatVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatVec(NewDense(2, 3), []float64{1})
}

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(r, c int, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("NewDense not zeroed")
		}
	}
}

func TestNewDensePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseFromPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must alias storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {64, 64}, {65, 130}, {200, 7}} {
		m := randMat(dims[0], dims[1], rng)
		mt := m.T()
		if mt.Rows != m.Cols || mt.Cols != m.Rows {
			t.Fatalf("transpose shape %d×%d", mt.Rows, mt.Cols)
		}
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if mt.At(j, i) != m.At(i, j) {
					t.Fatalf("T mismatch at (%d,%d)", i, j)
				}
			}
		}
		// Involution.
		if !mt.T().ApproxEqual(m, 0) {
			t.Fatal("(Xᵀ)ᵀ != X")
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFrom(2, 2, []float64{10, 20, 30, 40})

	if got := a.Add(b); !got.ApproxEqual(NewDenseFrom(2, 2, []float64{11, 22, 33, 44}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); !got.ApproxEqual(NewDenseFrom(2, 2, []float64{9, 18, 27, 36}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Hadamard(b); !got.ApproxEqual(NewDenseFrom(2, 2, []float64{10, 40, 90, 160}), 0) {
		t.Fatalf("Hadamard = %v", got)
	}
	if got := a.Scale(2); !got.ApproxEqual(NewDenseFrom(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("Scale = %v", got)
	}
	c := a.Clone()
	c.AxpyInPlace(0.5, b)
	if !c.ApproxEqual(NewDenseFrom(2, 2, []float64{6, 12, 18, 24}), 1e-15) {
		t.Fatalf("Axpy = %v", c)
	}
	d := a.Apply(func(v float64) float64 { return v * v })
	if !d.ApproxEqual(NewDenseFrom(2, 2, []float64{1, 4, 9, 16}), 0) {
		t.Fatalf("Apply = %v", d)
	}
}

func TestInPlaceVariantsMatchPure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(17, 9, rng), randMat(17, 9, rng)

	x := a.Clone()
	x.AddInPlace(b)
	if !x.ApproxEqual(a.Add(b), 0) {
		t.Fatal("AddInPlace != Add")
	}
	x = a.Clone()
	x.ScaleInPlace(3)
	if !x.ApproxEqual(a.Scale(3), 0) {
		t.Fatal("ScaleInPlace != Scale")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := NewDense(2, 2), NewDense(2, 3)
	for name, f := range map[string]func(){
		"Add":      func() { a.Add(b) },
		"Hadamard": func() { a.Hadamard(b) },
		"CopyFrom": func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestSliceRows(t *testing.T) {
	m := NewDenseFrom(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s := m.SliceRows(1, 3)
	if s.Rows != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("SliceRows bad content %v", s)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("SliceRows must alias parent")
	}
}

func TestFrobeniusNormAndMaxAbsDiff(t *testing.T) {
	m := NewDenseFrom(1, 2, []float64{3, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("FrobeniusNorm = %v", got)
	}
	b := NewDenseFrom(1, 2, []float64{3, 7})
	if got := m.MaxAbsDiff(b); got != 3 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
	if got := m.MaxRelDiff(b); got != 3.0/7 {
		t.Fatalf("MaxRelDiff = %v, want 3/7", got)
	}
	if z := NewDense(1, 2); z.MaxRelDiff(z) != 0 || !math.IsInf(m.MaxRelDiff(z), 1) {
		t.Fatal("MaxRelDiff against zeros: want 0 for equal, +Inf otherwise")
	}
	if m.ApproxEqual(NewDense(2, 1), 1) {
		t.Fatal("ApproxEqual must be false for different shapes")
	}
}

func TestZeroAndFill(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	m.Fill(7)
	for _, v := range m.Data {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

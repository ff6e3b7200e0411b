package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/tensor"
)

// onesTwin is a's ones-valued twin: a's pattern with every value 1 held.
func onesTwin(a *CSR) *CSR {
	v := make([]float64, a.NNZ())
	for q := range v {
		v[q] = 1
	}
	return a.WithValues(v)
}

// patternOf is a's pattern: RowPtr and Col shared, Val nil.
func patternOf(a *CSR) *CSR {
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, Col: a.Col}
}

// sameCSR reports whether a and b have the same shape and pattern and the
// same value bits at every entry, a pattern's read as ones.
func sameCSR(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.Col, b.Col) {
		return false
	}
	for p := range a.Col {
		if math.Float64bits(a.ValueAt(int64(p))) != math.Float64bits(b.ValueAt(int64(p))) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPatternBuildersKeepPatterns: FromCOO of a pattern COO, Identity,
// Transpose and Clone of a pattern hold no values; a weighted COO keeps its
// own, duplicates summed, where a pattern's duplicates collapse.
func TestPatternBuildersKeepPatterns(t *testing.T) {
	c := NewCOO(3, 4, 6)
	for _, e := range [][2]int32{{0, 3}, {2, 1}, {0, 3}, {0, 0}, {2, 1}, {1, 2}} {
		c.Append(e[0], e[1])
	}
	a := FromCOO(c)
	w := a.WithValues([]float64{2, 0.5, -1, 3})
	for _, tc := range []struct {
		name    string
		m       *CSR
		pattern bool
	}{
		{"FromCOO", a, true},
		{"Identity", Identity(5), true},
		{"Transpose", a.Transpose(), true},
		{"Clone", a.Clone(), true},
		{"weighted Transpose", w.Transpose(), false},
		{"weighted Clone", w.Clone(), false},
	} {
		if (tc.m.Val == nil) != tc.pattern {
			t.Errorf("%s: Val nil %t, want %t", tc.name, tc.m.Val == nil, tc.pattern)
		}
	}
	if !slices.Equal(a.Col, []int32{0, 3, 2, 1}) || !slices.Equal(a.RowPtr, []int64{0, 2, 3, 4}) {
		t.Errorf("FromCOO of a pattern: rowptr %v col %v, want [0 2 3 4] [0 3 2 1]", a.RowPtr, a.Col)
	}
	if !sameCSR(Identity(5), onesTwin(Identity(5))) || Identity(5).ToDense().At(3, 3) != 1 {
		t.Error("Identity does not read as ones")
	}
	// A weighted COO with the same entries sums its duplicates.
	v := NewCOO(3, 4, 6)
	for _, e := range [][2]int32{{0, 3}, {2, 1}, {0, 3}, {0, 0}, {2, 1}, {1, 2}} {
		v.AppendVal(e[0], e[1], 1)
	}
	if s := FromCOO(v); s.Val == nil || !slices.Equal(s.Val, []float64{1, 2, 1, 2}) {
		t.Errorf("FromCOO of a weighted COO: values %v, want [1 2 1 2]", s.Val)
	}
}

// TestPatternReadsAsOnes: every CSR method and every kernel on a pattern is
// bitwise what it is on the pattern's ones-valued twin.
func TestPatternReadsAsOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pat := randPattern(37, 37, 0.15, rng)
	rect := randPattern(23, 41, 0.2, rng)
	if pat.Val != nil || rect.Val != nil {
		t.Fatal("randPattern returned a valued matrix")
	}
	other := randSparse(37, 37, 0.15, rng)
	r := make([]float64, pat.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	x := tensor.RandN(pat.Cols, 9, 1, rng)
	xr := tensor.RandN(rect.Cols, 9, 1, rng)
	csrs := map[string]func(a *CSR) *CSR{
		"Transpose":      func(a *CSR) *CSR { return a.Transpose() },
		"Clone":          func(a *CSR) *CSR { return a.Clone() },
		"Apply":          func(a *CSR) *CSR { return a.Apply(math.Exp) },
		"Scale":          func(a *CSR) *CSR { return a.Scale(-0.3) },
		"AddSamePattern": func(a *CSR) *CSR { return a.AddSamePattern(a) },
		"Add":            func(a *CSR) *CSR { return a.Add(other) },
		"Add reversed":   func(a *CSR) *CSR { return other.Add(a) },
		"AddTranspose":   func(a *CSR) *CSR { return a.AddTranspose() },
		"ScaleRows":      func(a *CSR) *CSR { return a.ScaleRows(r) },
		"ScaleRowsCols":  func(a *CSR) *CSR { return a.ScaleRowsCols(r, r) },
		"SDDMM":          func(a *CSR) *CSR { return SDDMM(a, x, x) },
	}
	for name, f := range csrs {
		if !sameCSR(f(pat), f(onesTwin(pat))) {
			t.Errorf("%s: a pattern's result differs from its ones-valued twin's", name)
		}
	}
	denses := map[string]func(a *CSR) []float64{
		"ToDense": func(a *CSR) []float64 { return a.ToDense().Data },
		"RowSums": func(a *CSR) []float64 { return a.RowSums() },
		"MulDenseInto": func(a *CSR) []float64 {
			out := tensor.NewDense(a.Rows, x.Cols)
			a.MulDenseInto(out, x)
			return out.Data
		},
		"RowSoftmaxInto": func(a *CSR) []float64 {
			v := make([]float64, a.NNZ())
			RowSoftmaxInto(v, a)
			return v
		},
	}
	for name, f := range denses {
		if !sameFloats(f(pat), f(onesTwin(pat))) {
			t.Errorf("%s: a pattern's result differs from its ones-valued twin's", name)
		}
	}
	out, twin := tensor.NewDense(rect.Rows, xr.Cols), tensor.NewDense(rect.Rows, xr.Cols)
	rect.MulDenseInto(out, xr)
	onesTwin(rect).MulDenseInto(twin, xr)
	if !sameFloats(out.Data, twin.Data) {
		t.Error("MulDenseInto on a rectangular pattern differs from its ones-valued twin's")
	}
	if pat.Fingerprint() != onesTwin(pat).Fingerprint() {
		t.Error("Fingerprint: a pattern hashes differently from its ones-valued twin")
	}
	if pat.IsSymmetricPattern() != onesTwin(pat).IsSymmetricPattern() || !pat.SamePattern(onesTwin(pat)) {
		t.Error("the pattern predicates differ between a pattern and its ones-valued twin")
	}
	if got := RowValues[float32](pat, nil)(3, 7); len(got) != 4 || slices.ContainsFunc(got, func(v float32) bool { return v != 1 }) {
		t.Errorf("RowValues of a pattern at float32, entries [3, 7) = %v", got)
	}
}

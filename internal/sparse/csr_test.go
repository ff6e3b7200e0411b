package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/tensor"
)

// randSparse builds a random rows×cols CSR with approximately density·rows·cols
// non-zeros and N(0,1) values.
func randSparse(rows, cols int, density float64, rng *rand.Rand) *CSR {
	c := NewCOO(rows, cols, int(density*float64(rows*cols))+1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				c.AppendVal(int32(i), int32(j), rng.NormFloat64())
			}
		}
	}
	return FromCOO(c)
}

// randPattern builds a random binary pattern with at least one entry per row.
func randPattern(rows, cols int, density float64, rng *rand.Rand) *CSR {
	c := NewCOO(rows, cols, int(density*float64(rows*cols))+rows)
	for i := 0; i < rows; i++ {
		c.Append(int32(i), int32(rng.Intn(cols)))
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				c.Append(int32(i), int32(j))
			}
		}
	}
	return FromCOO(c)
}

func TestFromCOOSortsAndDedups(t *testing.T) {
	c := NewCOO(3, 3, 4)
	c.AppendVal(2, 1, 5)
	c.AppendVal(0, 2, 1)
	c.AppendVal(2, 1, 3) // duplicate, summed
	c.AppendVal(1, 0, 7)
	s := FromCOO(c)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	d := s.ToDense()
	want := tensor.NewDenseFrom(3, 3, []float64{0, 0, 1, 7, 0, 0, 0, 8, 0})
	if !d.ApproxEqual(want, 0) {
		t.Fatalf("FromCOO dense = %v", d)
	}
}

// TestFromCOOSumsDuplicatesInInputOrder pins the order a weighted COO's
// duplicates are summed in: the order they were appended. 1e16 + 1 rounds to
// 1e16, so the three values below sum to 0 in one order and to 1 in another;
// the entries of other rows and columns in between must not change it.
func TestFromCOOSumsDuplicatesInInputOrder(t *testing.T) {
	c := NewCOO(2, 3, 8)
	c.AppendVal(0, 2, 1e16)
	c.AppendVal(1, 2, 1e16)
	c.AppendVal(0, 1, 5)
	c.AppendVal(0, 2, 1)
	c.AppendVal(1, 2, -1e16)
	c.AppendVal(0, 2, -1e16)
	c.AppendVal(1, 0, 4)
	c.AppendVal(1, 2, 1)
	s := FromCOO(c)
	want := []float64{5, 0, 4, 1} // (0,1) (0,2) (1,0) (1,2)
	if !slices.Equal(s.Col, []int32{1, 2, 0, 2}) || !slices.Equal(s.Val, want) || !slices.Equal(s.RowPtr, []int64{0, 2, 4}) {
		t.Fatalf("FromCOO = rowptr %v col %v val %v, want [0 2 4] [1 2 0 2] %v", s.RowPtr, s.Col, s.Val, want)
	}
	if c.Row[0] != 0 || c.Col[0] != 2 || c.Val[0] != 1e16 {
		t.Fatal("FromCOO changed its argument")
	}
}

func TestFromCOOPatternDedup(t *testing.T) {
	c := NewCOO(2, 2, 4)
	c.Append(0, 1)
	c.Append(0, 1) // duplicate pattern entry collapses to a single 1
	c.Append(1, 0)
	s := FromCOO(c)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	if s.ToDense().At(0, 1) != 1 {
		t.Fatal("pattern entry should have value 1")
	}
}

func TestFromCOOOutOfRangePanics(t *testing.T) {
	c := NewCOO(2, 2, 1)
	c.Append(0, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromCOO(c)
}

func TestCOOAppendMixingPanics(t *testing.T) {
	c := NewCOO(2, 2, 2)
	c.Append(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AppendVal(1, 1, 2)
}

func TestIdentity(t *testing.T) {
	s := Identity(4)
	d := s.ToDense()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d.At(i, j) != want {
				t.Fatalf("Identity(%d,%d) = %v", i, j, d.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randSparse(13, 29, 0.2, rng)
	st := s.Transpose()
	if !st.ToDense().ApproxEqual(s.ToDense().T(), 0) {
		t.Fatal("Transpose dense mismatch")
	}
	// Involution.
	if !st.Transpose().ToDense().ApproxEqual(s.ToDense(), 0) {
		t.Fatal("(Sᵀ)ᵀ != S")
	}
	// The pattern form: entry q of Sᵀ is entry Src[q] of S.
	tp := s.TransposedPattern()
	if !tp.Pat.SamePattern(st) {
		t.Fatal("TransposedPattern's pattern differs from Transpose's")
	}
	for q, p := range tp.Src {
		if s.Val[p] != st.Val[q] {
			t.Fatalf("entry %d of Sᵀ: Src %d (value %v, want %v)", q, p, s.Val[p], st.Val[q])
		}
	}
}

// checkTransposed holds s.TransposedPattern() to the transpose built the
// general way: Pat is Sᵀ's pattern, without values; Src is what transpose
// writes; S keeps its values. A symmetric pattern — exactly when
// IsSymmetricPattern agrees with SamePattern(Transpose()) that it is one —
// is its own transpose: Pat's RowPtr and Col are S's slices (Pat is S itself
// for a pattern) and Src is an involution. Any other keeps slices of its own.
func checkTransposed(t *testing.T, what string, s *CSR) {
	t.Helper()
	vals := slices.Clone(s.Val)
	want := make([]uint32, s.NNZ())
	st := s.transpose(want)
	sym := s.Rows == s.Cols && s.SamePattern(s.Transpose())
	if got := s.IsSymmetricPattern(); got != sym {
		t.Errorf("%s: IsSymmetricPattern %v, SamePattern(Transpose()) %v", what, got, sym)
	}
	tp := s.TransposedPattern()
	if tp.Pat.Val != nil || tp.Pat.Rows != s.Cols || tp.Pat.Cols != s.Rows || !tp.Pat.SamePattern(st) {
		t.Fatalf("%s: Pat is %d×%d (values %v), not Sᵀ's pattern", what, tp.Pat.Rows, tp.Pat.Cols, tp.Pat.Val != nil)
	}
	if !slices.Equal(tp.Src, want) {
		t.Errorf("%s: Src %v, transpose builds %v", what, tp.Src, want)
	}
	if (vals == nil) != (s.Val == nil) || !slices.Equal(s.Val, vals) {
		t.Errorf("%s: S's values changed", what)
	}
	shares := len(s.Col) > 0 && &tp.Pat.Col[0] == &s.Col[0] && &tp.Pat.RowPtr[0] == &s.RowPtr[0]
	if len(s.Col) > 0 && shares != sym {
		t.Errorf("%s: Pat shares S's slices: %v, the pattern is symmetric: %v", what, shares, sym)
	}
	if sym && s.Val == nil && tp.Pat != s {
		t.Errorf("%s: a symmetric pattern's Pat is not the pattern itself", what)
	}
	for q, p := range tp.Src {
		if sym && tp.Src[p] != uint32(q) {
			t.Fatalf("%s: Src[Src[%d]] = %d", what, q, tp.Src[p])
		}
	}
}

// cooOf builds a rows×cols CSR from (i, j) pairs: a pattern, or with
// weighted the values 1, 2, 3, ….
func cooOf(rows, cols int, weighted bool, pairs ...int32) *CSR {
	c := NewCOO(rows, cols, len(pairs)/2)
	for q := 0; q+1 < len(pairs); q += 2 {
		if weighted {
			c.AppendVal(pairs[q], pairs[q+1], float64(q/2+1))
		} else {
			c.Append(pairs[q], pairs[q+1])
		}
	}
	return FromCOO(c)
}

// TestTransposedPattern: a symmetric pattern, weighted or not, shares S's
// pattern as its transpose; a directed cycle, whose every row and column
// holds one entry, and a matrix symmetric in its first rows before one are
// caught by the one-pass check — the second after part of Src is written —
// and transposed the general way; so are a rectangular matrix and matrices
// with empty rows, symmetric or not.
func TestTransposedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	undirected := func(n int, weighted bool) *CSR {
		a := randPattern(n, n, 0.3, rng)
		c := NewCOO(n, n, 2*a.NNZ())
		for i := 0; i < n; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := a.Col[p]
				if weighted {
					w := rng.NormFloat64()
					c.AppendVal(int32(i), j, w)
					c.AppendVal(j, int32(i), w)
				} else {
					c.Append(int32(i), j)
					c.Append(j, int32(i))
				}
			}
		}
		return FromCOO(c)
	}
	for _, c := range []struct {
		name string
		s    *CSR
		sym  bool
	}{
		{"symmetric pattern", undirected(17, false), true},
		{"weighted symmetric", undirected(17, true), true},
		{"directed cycle", cooOf(4, 4, false, 0, 1, 1, 2, 2, 3, 3, 0), false},
		{"symmetric rows, then a directed cycle", cooOf(5, 5, true, 0, 1, 1, 0, 2, 3, 3, 4, 4, 2), false},
		{"rectangular", randSparse(6, 11, 0.3, rng), false},
		{"rectangular pattern", randPattern(9, 4, 0.3, rng), false},
		{"empty rows, symmetric", cooOf(6, 6, false, 1, 4, 4, 1, 4, 4), true},
		{"empty rows, asymmetric", cooOf(6, 6, true, 1, 4, 4, 4, 5, 1), false},
		{"empty", cooOf(3, 3, false), true},
	} {
		if got := c.s.IsSymmetricPattern(); got != c.sym {
			t.Errorf("%s: IsSymmetricPattern %v, want %v", c.name, got, c.sym)
		}
		checkTransposed(t, c.name, c.s)
	}
}

// FuzzTransposedPattern decodes a matrix from raw bytes — its shape, whether
// it holds values, whether each entry comes with its mirror, then (i, j)
// pairs — and holds its TransposedPattern to checkTransposed.
func FuzzTransposedPattern(f *testing.F) {
	f.Add([]byte{4, 4, 0, 1, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{4, 4, 0, 0, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{5, 5, 1, 1, 0, 1, 2, 3, 4, 4})
	f.Add([]byte{3, 7, 1, 0, 0, 6, 2, 1, 1, 1})
	f.Add([]byte{6, 6, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rows, cols := int(data[0]%16)+1, int(data[1]%16)+1
		weighted, mirror := data[2]&1 == 1, data[3]&1 == 1
		if mirror {
			cols = rows
		}
		c := NewCOO(rows, cols, len(data))
		add := func(i, j int32, v float64) {
			if weighted {
				c.AppendVal(i, j, v)
			} else {
				c.Append(i, j)
			}
		}
		for q := 4; q+1 < len(data); q += 2 {
			i, j := int32(int(data[q])%rows), int32(int(data[q+1])%cols)
			add(i, j, float64(q))
			if mirror {
				add(j, i, float64(q))
			}
		}
		checkTransposed(t, "fuzzed", FromCOO(c))
	})
}

func TestWithValuesSharesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randSparse(5, 5, 0.4, rng)
	v := make([]float64, s.NNZ())
	b := s.WithValues(v)
	if !s.SamePattern(b) {
		t.Fatal("WithValues must share pattern")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong length")
		}
	}()
	s.WithValues(make([]float64, s.NNZ()+1))
}

func TestSamePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSparse(10, 10, 0.3, rng)
	// Deep-equal but not shared pattern.
	c := s.Clone()
	if !s.SamePattern(c) {
		t.Fatal("clone must have same pattern")
	}
	other := randSparse(10, 10, 0.3, rand.New(rand.NewSource(99)))
	if s.NNZ() == other.NNZ() && s.SamePattern(other) {
		t.Fatal("different random patterns reported equal")
	}
}

func TestApplyExpScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randSparse(8, 8, 0.3, rng)
	e := s.Apply(math.Exp)
	for p := range e.Val {
		if e.Val[p] != math.Exp(s.Val[p]) {
			t.Fatal("Apply value mismatch")
		}
	}
	sc := s.Scale(-2)
	for p := range sc.Val {
		if sc.Val[p] != -2*s.Val[p] {
			t.Fatal("Scale value mismatch")
		}
	}
}

func TestAddSamePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randSparse(10, 12, 0.3, rng)
	b := s.WithValues(make([]float64, s.NNZ()))
	for p := range b.Val {
		b.Val[p] = float64(p)
	}
	a := s.AddSamePattern(b)
	for p := range s.Val {
		if a.Val[p] != s.Val[p]+b.Val[p] {
			t.Fatal("AddSamePattern value mismatch")
		}
	}
}

func TestAddSamePatternMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randSparse(6, 6, 0.5, rng)
	o := randSparse(6, 6, 0.1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddSamePattern(o)
}

func TestAddGeneralMergesPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSparse(15, 15, 0.2, rng)
	b := randSparse(15, 15, 0.2, rng)
	got := a.Add(b).ToDense()
	want := a.ToDense().Add(b.ToDense())
	if !got.ApproxEqual(want, 1e-14) {
		t.Fatalf("general Add mismatch: %g", got.MaxAbsDiff(want))
	}
}

func TestAddTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randSparse(20, 20, 0.15, rng)
	got := s.AddTranspose().ToDense()
	want := s.ToDense().Add(s.ToDense().T())
	if !got.ApproxEqual(want, 1e-14) {
		t.Fatal("X₊ = X + Xᵀ mismatch")
	}
}

func TestRowSums(t *testing.T) {
	c := NewCOO(3, 3, 4)
	c.AppendVal(0, 0, 1)
	c.AppendVal(0, 2, 3)
	c.AppendVal(2, 1, -5)
	s := FromCOO(c)
	rs := s.RowSums()
	if rs[0] != 4 || rs[1] != 0 || rs[2] != -5 {
		t.Fatalf("RowSums = %v", rs)
	}
}

func TestScaleRowsCols(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := randSparse(6, 7, 0.4, rng)
	r := make([]float64, 6)
	c := make([]float64, 7)
	for i := range r {
		r[i] = float64(i + 1)
	}
	for j := range c {
		c[j] = float64(j) - 3
	}
	got := s.ScaleRowsCols(r, c).ToDense()
	want := tensor.NewDense(6, 7)
	for i := 0; i < 6; i++ {
		for j := 0; j < 7; j++ {
			want.Set(i, j, s.ToDense().At(i, j)*r[i]*c[j])
		}
	}
	if !got.ApproxEqual(want, 1e-14) {
		t.Fatal("ScaleRowsCols mismatch")
	}
	// ScaleRows only.
	got2 := s.ScaleRows(r).ToDense()
	for i := 0; i < 6; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(got2.At(i, j)-s.ToDense().At(i, j)*r[i]) > 1e-14 {
				t.Fatal("ScaleRows mismatch")
			}
		}
	}
}

func TestRowNNZAndMaxRowNNZ(t *testing.T) {
	c := NewCOO(3, 5, 5)
	c.Append(0, 1)
	c.Append(0, 2)
	c.Append(0, 3)
	c.Append(2, 0)
	s := FromCOO(c)
	if s.RowNNZ(0) != 3 || s.RowNNZ(1) != 0 || s.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
	if s.MaxRowNNZ() != 3 {
		t.Fatal("MaxRowNNZ wrong")
	}
}

func TestIsSymmetricPattern(t *testing.T) {
	c := NewCOO(3, 3, 4)
	c.Append(0, 1)
	c.Append(1, 0)
	c.Append(2, 2)
	if !FromCOO(c).IsSymmetricPattern() {
		t.Fatal("symmetric pattern not detected")
	}
	c2 := NewCOO(3, 3, 1)
	c2.Append(0, 1)
	if FromCOO(c2).IsSymmetricPattern() {
		t.Fatal("asymmetric pattern reported symmetric")
	}
	if FromCOO(NewCOO(2, 3, 0)).IsSymmetricPattern() {
		t.Fatal("non-square matrix cannot be symmetric")
	}
}

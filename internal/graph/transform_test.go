package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/sparse"
)

func pathGraph(n int) *sparse.CSR {
	c := sparse.NewCOO(n, n, 2*(n-1))
	for i := 0; i < n-1; i++ {
		c.Append(int32(i), int32(i+1))
		c.Append(int32(i+1), int32(i))
	}
	return sparse.FromCOO(c)
}

func TestAddSelfLoops(t *testing.T) {
	a := pathGraph(4)
	ah := AddSelfLoops(a)
	d := ah.ToDense()
	for i := 0; i < 4; i++ {
		if d.At(i, i) != 1 {
			t.Fatalf("missing self loop at %d", i)
		}
	}
	if ah.NNZ() != a.NNZ()+4 {
		t.Fatalf("nnz = %d", ah.NNZ())
	}
	// Idempotent on the pattern: adding again keeps value 1.
	ah2 := AddSelfLoops(ah)
	if ah2.NNZ() != ah.NNZ() {
		t.Fatal("AddSelfLoops not idempotent on pattern")
	}
	for _, v := range ah2.Val {
		if v != 1 {
			t.Fatal("self loop value must stay 1")
		}
	}
}

// TestAddSelfLoopsIsAddIdentity holds the one-pass AddSelfLoops to the
// definition it replaced, A.Add(I) with every value mapped to the unit of its
// sum, bit for bit: on random graphs with and without diagonal entries, and
// on a diagonal whose value cancels the identity's 1 (kept, as 0).
func TestAddSelfLoopsIsAddIdentity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		a := ErdosRenyi(200, 900, seed)
		if seed%2 == 0 {
			a = AddSelfLoops(RemoveSelfLoops(a))
		}
		vals := make([]float64, a.NNZ())
		rng := rand.New(rand.NewSource(seed))
		for p := range vals {
			vals[p] = float64(rng.Intn(3) - 1) // -1, 0 or 1
		}
		for _, m := range []*sparse.CSR{a, a.WithValues(vals)} {
			want := m.Add(sparse.Identity(m.Rows)).Apply(func(v float64) float64 {
				if v != 0 {
					return 1
				}
				return 0
			})
			got := AddSelfLoops(m)
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) || !sameValues(got, want) {
				t.Fatalf("seed %d: AddSelfLoops differs from Add(I) mapped to units", seed)
			}
		}
	}
}

// sameValues reports whether a and b hold the same value bits at every entry,
// a pattern's as ones.
func sameValues(a, b *sparse.CSR) bool {
	for p := range a.Col {
		if math.Float64bits(a.ValueAt(int64(p))) != math.Float64bits(b.ValueAt(int64(p))) {
			return false
		}
	}
	return a.NNZ() == b.NNZ()
}

func TestRemoveSelfLoops(t *testing.T) {
	ah := AddSelfLoops(pathGraph(4))
	a := RemoveSelfLoops(ah)
	d := a.ToDense()
	for i := 0; i < 4; i++ {
		if d.At(i, i) != 0 {
			t.Fatal("self loop survived removal")
		}
	}
}

func TestSymmetrize(t *testing.T) {
	c := sparse.NewCOO(3, 3, 1)
	c.Append(0, 2)
	a := sparse.FromCOO(c)
	s := Symmetrize(a)
	if !s.IsSymmetricPattern() {
		t.Fatal("Symmetrize result not symmetric")
	}
	if s.ToDense().At(2, 0) != 1 || s.ToDense().At(0, 2) != 1 {
		t.Fatal("values must be unit")
	}
}

func TestNormalizeGCN(t *testing.T) {
	a := pathGraph(3) // degrees with self loops: 2, 3, 2
	n := NormalizeGCN(a)
	d := n.ToDense()
	// Entry (0,1) = 1/sqrt(2·3).
	if math.Abs(d.At(0, 1)-1/math.Sqrt(6)) > 1e-12 {
		t.Fatalf("normalized (0,1) = %v", d.At(0, 1))
	}
	if math.Abs(d.At(0, 0)-0.5) > 1e-12 {
		t.Fatalf("normalized (0,0) = %v", d.At(0, 0))
	}
	// Symmetric normalization keeps symmetry.
	if !n.ToDense().ApproxEqual(n.ToDense().T(), 1e-14) {
		t.Fatal("GCN normalization must be symmetric")
	}
}

func TestNormalizeRW(t *testing.T) {
	a := pathGraph(3)
	n := NormalizeRW(a)
	rows := n.RowSums()
	for i, v := range rows {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("row %d of D⁻¹A sums to %v", i, v)
		}
	}
}

func TestDegreesAndSummarize(t *testing.T) {
	a := pathGraph(5)
	deg := Degrees(a)
	want := []int{1, 2, 2, 2, 1}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("degree[%d] = %d, want %d", i, deg[i], want[i])
		}
	}
	st := Summarize(a)
	if st.MaxDeg != 2 || st.N != 5 || st.M != 8 || !st.Symmetric || st.Isolated != 0 {
		t.Fatalf("bad stats %+v", st)
	}
	if math.Abs(st.Density-8.0/25) > 1e-12 {
		t.Fatalf("density %v", st.Density)
	}
}

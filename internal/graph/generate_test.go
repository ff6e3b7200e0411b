package graph

import (
	"math"
	"testing"
)

func TestKroneckerBasicProperties(t *testing.T) {
	a := Kronecker(8, 8, 42)
	st := Summarize(a)
	if st.N != 256 {
		t.Fatalf("n = %d, want 256", st.N)
	}
	if st.Isolated != 0 {
		t.Fatalf("%d isolated vertices after post-processing", st.Isolated)
	}
	if !st.Symmetric {
		t.Fatal("Kronecker graph must be symmetric")
	}
	if st.M == 0 || st.M > 2*8*256+2*256 {
		t.Fatalf("unexpected edge count %d", st.M)
	}
	// No self loops.
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.Col[p]) == i {
				t.Fatalf("self loop at %d", i)
			}
		}
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := Kronecker(7, 6, 7)
	b := Kronecker(7, 6, 7)
	if a.NNZ() != b.NNZ() {
		t.Fatal("Kronecker not deterministic")
	}
	for p := range a.Col {
		if a.Col[p] != b.Col[p] {
			t.Fatal("Kronecker not deterministic")
		}
	}
	c := Kronecker(7, 6, 8)
	if c.NNZ() == a.NNZ() {
		same := true
		for p := range a.Col {
			if a.Col[p] != c.Col[p] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestKroneckerHeavyTail(t *testing.T) {
	// The Kronecker model must produce a skewed degree distribution:
	// max degree far above average.
	a := Kronecker(10, 16, 1)
	st := Summarize(a)
	if float64(st.MaxDeg) < 4*st.AvgDeg {
		t.Fatalf("degree distribution not heavy-tailed: max %d avg %.1f", st.MaxDeg, st.AvgDeg)
	}
}

func TestKroneckerScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Kronecker(0, 8, 1)
}

func TestErdosRenyiProperties(t *testing.T) {
	n, m := 500, 3000
	a := ErdosRenyi(n, m, 9)
	st := Summarize(a)
	if st.N != n || st.Isolated != 0 || !st.Symmetric {
		t.Fatalf("bad ER stats %+v", st)
	}
	// Directed nnz ≈ 2m (plus isolated-vertex repair edges).
	if st.M < 2*m || st.M > 2*m+2*n {
		t.Fatalf("nnz = %d, want ≈ %d", st.M, 2*m)
	}
	// Uniform-ish degrees: max degree should be within a small factor of avg.
	if float64(st.MaxDeg) > 5*st.AvgDeg {
		t.Fatalf("ER degrees too skewed: max %d avg %.1f", st.MaxDeg, st.AvgDeg)
	}
}

func TestErdosRenyiDenseRegime(t *testing.T) {
	n := 60
	m := n * (n - 1) / 3 // > 25% of max → Bernoulli path
	a := ErdosRenyi(n, m, 10)
	st := Summarize(a)
	if st.N != n || !st.Symmetric || st.Isolated != 0 {
		t.Fatalf("bad dense ER stats %+v", st)
	}
	got := float64(st.M) / 2
	if math.Abs(got-float64(m)) > 0.3*float64(m) {
		t.Fatalf("dense ER edges %v, want ≈ %d", got, m)
	}
}

func TestErdosRenyiCapsAtCompleteGraph(t *testing.T) {
	n := 10
	a := ErdosRenyi(n, 1000, 11) // request more than n(n-1)/2
	if a.NNZ() > n*(n-1) {
		t.Fatalf("nnz %d exceeds complete graph", a.NNZ())
	}
}

func TestMAKGSimDensity(t *testing.T) {
	a := MAKGSim(10, 3)
	st := Summarize(a)
	// Average degree should land near MAKG's ≈29 (symmetrized, pre-dedup
	// 2·14.5; duplicate removal on a small graph loses some).
	if st.AvgDeg < 15 || st.AvgDeg > 30 {
		t.Fatalf("MAKGSim avg degree %.1f outside [15,30]", st.AvgDeg)
	}
	if !st.Symmetric || st.Isolated != 0 {
		t.Fatal("MAKGSim must be symmetric with no isolated vertices")
	}
}

func TestPlantedPartition(t *testing.T) {
	n, classes := 120, 4
	a, labels := PlantedPartition(n, classes, 0.2, 0.01, 5)
	if len(labels) != n {
		t.Fatal("labels length")
	}
	// Count intra vs inter edges: intra should dominate per-pair rate.
	intra, inter := 0, 0
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if labels[i] == labels[int(a.Col[p])] {
				intra++
			} else {
				inter++
			}
		}
	}
	// Pairs: intra pairs ≈ n²/(2·classes), inter ≈ n²(classes-1)/(2·classes).
	intraRate := float64(intra) / (float64(n*n) / float64(classes))
	interRate := float64(inter) / (float64(n*n) * float64(classes-1) / float64(classes))
	if intraRate < 2*interRate {
		t.Fatalf("planted structure too weak: intra %.4f inter %.4f", intraRate, interRate)
	}
}

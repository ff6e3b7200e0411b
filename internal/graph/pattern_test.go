package graph_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/sparse"
)

// valuesOf reads every entry's value, a pattern's as ones.
func valuesOf(a *sparse.CSR) []float64 {
	v := make([]float64, a.NNZ())
	for p := range v {
		v[p] = a.ValueAt(int64(p))
	}
	return v
}

// TestBuildersKeepPatterns: every builder of the graph package keeps a
// pattern (Val nil) a pattern, with the entries and value bits its
// ones-valued twin gets; GCN's normalization and a weighted input keep their
// values, but a unit-valued result (self loops, Symmetrize) is a pattern
// unless a sum is 0; and a file written from a pattern reads back as one, a
// weighted file as weighted.
func TestBuildersKeepPatterns(t *testing.T) {
	pat := graph.ErdosRenyi(60, 240, 5)
	vals, wvals := make([]float64, pat.NNZ()), make([]float64, pat.NNZ())
	rng := rand.New(rand.NewSource(6))
	for q := range vals {
		vals[q], wvals[q] = 1, 0.5+rng.Float64()
	}
	ones, weighted := pat.WithValues(vals), pat.WithValues(wvals)
	zeros := pat.WithValues(make([]float64, pat.NNZ())) // every off-diagonal sum 0
	verts := []int32{7, 3, 41, 0, 19, 58, 22, 33, 12}
	builders := []struct {
		name   string
		build  func(a *sparse.CSR) *sparse.CSR
		valued bool // the result holds values whatever the input
		units  bool // the result is unit-valued: a pattern unless a sum is 0
	}{
		{"AddSelfLoops", graph.AddSelfLoops, false, true},
		{"RemoveSelfLoops", func(a *sparse.CSR) *sparse.CSR { return graph.RemoveSelfLoops(graph.AddSelfLoops(a)) }, false, true},
		{"Symmetrize", graph.Symmetrize, false, true},
		{"InducedSubgraph", func(a *sparse.CSR) *sparse.CSR { return graph.InducedSubgraph(a, verts) }, false, false},
		{"InducedRows", func(a *sparse.CSR) *sparse.CSR { return graph.InducedRows(a, verts, 4) }, false, false},
		{"RowBlock", func(a *sparse.CSR) *sparse.CSR { return graph.RowBlock(a, verts[:4], nil) }, false, false},
		{"RowBlock within", func(a *sparse.CSR) *sparse.CSR { return graph.RowBlock(a, verts[:4], verts) }, false, false},
		{"PrepNone", graph.PrepNone.Apply, false, false},
		{"PrepSelfLoops", graph.PrepSelfLoops.Apply, false, true},
		{"Block PrepNone", func(a *sparse.CSR) *sparse.CSR { return graph.Block(a, graph.PrepNone, 20, 30, 20, 20) }, false, false},
		{"Block PrepSelfLoops", func(a *sparse.CSR) *sparse.CSR { return graph.Block(a, graph.PrepSelfLoops, 20, 10, 20, 20) }, false, true},
		{"row Block PrepSelfLoops", func(a *sparse.CSR) *sparse.CSR { return graph.Block(a, graph.PrepSelfLoops, 15, 0, 15, 60) }, false, true},
		{"PrepGCN", graph.PrepGCN.Apply, true, false},
		{"Block PrepGCN", func(a *sparse.CSR) *sparse.CSR { return graph.Block(a, graph.PrepGCN, 20, 10, 20, 20) }, true, false},
		{"NormalizeRW", graph.NormalizeRW, true, false},
	}
	for _, b := range builders {
		got, twin, w, z := b.build(pat), b.build(ones), b.build(weighted), b.build(zeros)
		if (got.Val == nil) == b.valued {
			t.Errorf("%s of a pattern: Val nil %t, want %t", b.name, got.Val == nil, !b.valued)
		}
		if (twin.Val == nil) != (b.units && !b.valued) || (w.Val == nil) != (b.units && !b.valued) || z.Val == nil {
			t.Errorf("%s of valued inputs: Val nil %t (ones), %t (weighted), %t (zeros), want %t, %t, false",
				b.name, twin.Val == nil, w.Val == nil, z.Val == nil, b.units, b.units)
		}
		if !sameValues(got, twin) || got.Rows != twin.Rows || got.Cols != twin.Cols {
			t.Errorf("%s: a pattern's result differs from its ones-valued twin's", b.name)
		}
	}
	for _, gen := range []*sparse.CSR{graph.Kronecker(6, 4, 1), graph.ErdosRenyi(30, 90, 2), graph.SyntheticCitation(40, 2, 3, 0.5, 3).Adj} {
		if gen.Val != nil {
			t.Error("a generator returned a valued matrix, want a pattern")
		}
	}

	// The file formats store a value per entry; a pattern's read back as ones.
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{{"pattern", pat}, {"ones", ones}, {"weighted", weighted}} {
		wantPattern := tc.a != weighted
		var bin, txt, ds bytes.Buffer
		if err := graph.WriteCOOBinary(&bin, tc.a); err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteCOOText(&txt, tc.a); err != nil {
			t.Fatal(err)
		}
		d := graph.SyntheticCitation(pat.Rows, 2, 3, 0.5, 4)
		d.Adj = tc.a
		if err := graph.WriteDataset(&ds, d); err != nil {
			t.Fatal(err)
		}
		fromBin, err := graph.ReadCOOBinary(&bin)
		if err != nil {
			t.Fatal(err)
		}
		fromTxt, err := graph.ReadCOOText(&txt)
		if err != nil {
			t.Fatal(err)
		}
		fromDS, err := graph.ReadDataset(&ds)
		if err != nil {
			t.Fatal(err)
		}
		for what, got := range map[string]*sparse.CSR{"binary": fromBin, "dataset": fromDS.Adj} {
			if (got.Val == nil) != wantPattern || !sameValues(got, tc.a) {
				t.Errorf("%s written as %s reads back with Val nil %t, want %t (values equal: %t)",
					tc.name, what, got.Val == nil, wantPattern, sameValues(got, tc.a))
			}
		}
		if fromTxt.Val != nil || fromTxt.NNZ() != tc.a.NNZ() {
			t.Errorf("%s written as text reads back valued or with %d of %d entries", tc.name, fromTxt.NNZ(), tc.a.NNZ())
		}
	}
}

// TestReadersSumDuplicatesBeforeDeciding: a binary file whose unit values
// repeat an entry reads back as the sum, weighted, not as a pattern.
func TestReadersSumDuplicatesBeforeDeciding(t *testing.T) {
	c := sparse.NewCOO(2, 2, 3)
	c.AppendVal(0, 1, 1)
	c.AppendVal(1, 0, 1)
	a := sparse.FromCOO(c)
	var buf bytes.Buffer
	if err := graph.WriteCOOBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Repeat the last (row, col, val) triple and bump the header's nnz.
	data = append(data, data[len(data)-16:]...)
	data[len("AGNNCOO1")+16]++
	got, err := graph.ReadCOOBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Val == nil || math.Float64bits(valuesOf(got)[1]) != math.Float64bits(2) {
		t.Errorf("duplicated unit entry reads back as %v (Val nil %t), want its sum 2, weighted", valuesOf(got), got.Val == nil)
	}
}

// sameValues reports whether a and b hold the same entries with the same
// value bits, a pattern's read as ones.
func sameValues(a, b *sparse.CSR) bool {
	return slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) &&
		slices.EqualFunc(valuesOf(a), valuesOf(b), func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

package sparse

import (
	"math/rand"
	"testing"

	"agnn/internal/par"
	"agnn/internal/tensor"
)

func randCSRWide(n, nnzPerRow, k int, seed int64) (*CSR, *tensor.Dense) {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n, n*nnzPerRow)
	for i := 0; i < n; i++ {
		for e := 0; e < nnzPerRow; e++ {
			coo.AppendVal(int32(i), int32(rng.Intn(n)), 0.25+rng.Float64())
		}
	}
	return FromCOO(coo), tensor.RandN(n, k, 1, rng)
}

// TestMulDenseIntoTiledBitwiseIdentical: confining the SpMM sweep to column
// stripes must not change a single output bit — each out[i,j] accumulates
// its nnz contributions in the original row order either way.
func TestMulDenseIntoTiledBitwiseIdentical(t *testing.T) {
	defer tensor.SetTileBudget(0)
	s, x := randCSRWide(80, 6, 48, 61)

	tensor.SetTileBudget(0)
	want := mulDense(s, x)
	tensor.SetTileBudget(1) // minimum stripe width: 6 passes
	got := mulDense(s, x)
	if got.MaxAbsDiff(want) != 0 {
		t.Fatalf("tiled SpMM deviates by %g, want bitwise identity", got.MaxAbsDiff(want))
	}
}

// TestTilingAddsNoAllocations: the column-striped sweep must not allocate
// tile buffers — tiling is pure loop restructuring over the caller's
// storage. The only per-call allocation either way is the escaping
// parallel-range closure (the compiled plans prebuild theirs once, which is
// what their zero-alloc steady-state tests pin down), so tiled and untiled
// counts must be identical and must not scale with the stripe count. A
// pattern reads its ones from a shared row, so it allocates what its
// ones-valued twin does.
func TestTilingAddsNoAllocations(t *testing.T) {
	old := par.Workers()
	par.SetWorkers(1)
	defer par.SetWorkers(old)
	defer tensor.SetTileBudget(0)

	valued, x := randCSRWide(64, 4, 32, 62)
	var allocs []float64
	for _, s := range []*CSR{valued, patternOf(valued)} {
		out := tensor.NewDense(s.Rows, x.Cols)
		s.MulDenseInto(out, x) // warm up

		tensor.SetTileBudget(0) // whole stripe fits: single pass
		af64 := testing.AllocsPerRun(20, func() { s.MulDenseInto(out, x) })
		tensor.SetTileBudget(1) // minimum stripe width: 4 passes
		afTiled := testing.AllocsPerRun(20, func() { s.MulDenseInto(out, x) })
		if afTiled != af64 {
			t.Errorf("pattern %t: tiling changed allocations: %.1f untiled vs %.1f tiled objects/op", s.Val == nil, af64, afTiled)
		}
		if afTiled > 2 {
			t.Errorf("pattern %t: tiled MulDenseInto allocates %.1f objects/op, want at most the range closures", s.Val == nil, afTiled)
		}
		allocs = append(allocs, afTiled)
	}
	if allocs[1] != allocs[0] {
		t.Errorf("MulDenseInto allocates %.1f objects/op over a pattern, %.1f over its valued twin", allocs[1], allocs[0])
	}
}

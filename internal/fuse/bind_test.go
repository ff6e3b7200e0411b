package fuse

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func cacheTestCSR(n, m int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	c := sparse.NewCOO(n, n, m)
	for i := 0; i < m; i++ {
		c.Row = append(c.Row, int32(rng.Intn(n)))
		c.Col = append(c.Col, int32(rng.Intn(n)))
		c.Val = append(c.Val, 1)
	}
	return sparse.FromCOO(c)
}

// spmmPlan compiles the smallest useful plan (one SpMM) against a.
func spmmPlan(a *sparse.CSR, in int) *Plan {
	g := NewGraph("cachetest", a)
	h := g.InputDense("H", a.Cols, in)
	g.SetOutput(g.SpMM("Z", g.Adj(), h))
	return g.MustCompile(Options{SpanPrefix: "cachetest."})
}

// TestBindCountsCompilesAndRebinds pins what the agnn_plancache counters
// count: a miss is a compile, a hit is a bind of a compiled plan to a pattern
// other than the one it has. Binding the pattern it already has counts as
// neither.
func TestBindCountsCompilesAndRebinds(t *testing.T) {
	a, b := cacheTestCSR(32, 128, 1), cacheTestCSR(24, 96, 2)
	hits0, misses0 := metrics.PlanCacheHits.Value(), metrics.PlanCacheMisses.Value()
	live0 := LivePlans()
	counts := func(what string, hits, misses int64) {
		t.Helper()
		if d := metrics.PlanCacheHits.Value() - hits0; d != hits {
			t.Errorf("%s: agnn_plancache_hits delta = %d, want %d", what, d, hits)
		}
		if d := metrics.PlanCacheMisses.Value() - misses0; d != misses {
			t.Errorf("%s: agnn_plancache_misses delta = %d, want %d", what, d, misses)
		}
	}

	p := spmmPlan(a, 4)
	counts("compile", 0, 1)
	if LivePlans() != live0+1 {
		t.Fatalf("live plans after a compile: %d, want %d", LivePlans(), live0+1)
	}
	if !p.Bind(a) {
		t.Fatal("the plan refused the pattern it was compiled over")
	}
	counts("bind to the same pattern", 0, 1)
	for _, next := range []*sparse.CSR{b, b, a} {
		if !p.Bind(next) {
			t.Fatal("an SpMM plan refused a pattern")
		}
	}
	counts("binds to b, b again, then a", 2, 1)
	if out := p.Forward(tensor.NewDense(a.Cols, 4)); out.Rows != a.Rows {
		t.Fatalf("bound back to a, the plan wrote %d rows, want %d", out.Rows, a.Rows)
	}
	// A row block's column count is the plan's input height: two blocks with
	// the same rows, entries and values but 3 and 5 columns take 3 and 5
	// input rows.
	narrow := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 3}, Col: []int32{0, 2, 1}, Val: []float64{1, 2, 3}}
	wide := &sparse.CSR{Rows: 2, Cols: 5, RowPtr: narrow.RowPtr, Col: narrow.Col, Val: narrow.Val}
	for _, blk := range []*sparse.CSR{narrow, wide} {
		if !p.Bind(blk) {
			t.Fatalf("the plan refused a %d×%d block", blk.Rows, blk.Cols)
		}
		if out := p.Forward(tensor.NewDense(blk.Cols, 4)); out.Rows != 2 {
			t.Fatalf("bound to the %d×%d block, the plan wrote %d rows, want 2", blk.Rows, blk.Cols, out.Rows)
		}
	}
	counts("binds to a 2×3 and a 2×5 block", 4, 1)

	p.Release()
	p.Release() // idempotent
	if LivePlans() != live0 {
		t.Fatalf("live plans after release: %d, want %d", LivePlans(), live0)
	}
}

// TestBindConcurrentHammer compiles, binds, runs and releases plans from
// many goroutines at once, all drawing on the one process-wide workspace
// arena. Run under -race in CI. Every answer must be the one a fresh compile
// over the same pattern gives, and at full drain every buffer must be back in
// the arena exactly once (a double release would drive the count below where
// it started, a leak above).
func TestBindConcurrentHammer(t *testing.T) {
	const (
		K     = 5
		G     = 8
		iters = 100
	)
	adjs := make([]*sparse.CSR, K)
	feats := make([]*tensor.Dense, K)
	want := make([][]float64, K)
	rng := rand.New(rand.NewSource(9))
	for i := range adjs {
		adjs[i] = cacheTestCSR(16+4*i, 40+20*i, int64(200+i))
		feats[i] = tensor.RandN(adjs[i].Cols, 4, 1, rng)
		p := spmmPlan(adjs[i], 4)
		want[i] = append([]float64(nil), p.Forward(feats[i]).Data...)
		p.Release()
	}
	live0, buffers0 := LivePlans(), workspace.Live()

	var wg sync.WaitGroup
	errs := make(chan string, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([]*Plan, 0, 4)
			for i := 0; i < iters; i++ {
				k := rng.Intn(K)
				if len(held) == 0 || rng.Intn(3) == 0 {
					held = append(held, spmmPlan(adjs[rng.Intn(K)], 4))
				}
				p := held[rng.Intn(len(held))]
				p.Bind(adjs[k])
				for j, v := range p.Forward(feats[k]).Data {
					if math.Float64bits(v) != math.Float64bits(want[k][j]) {
						errs <- "a bound plan's answer differs from a fresh compile's"
						return
					}
				}
				if len(held) > 3 || rng.Intn(4) == 0 {
					j := rng.Intn(len(held))
					held[j].Release()
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			}
			for _, p := range held {
				p.Release()
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := LivePlans(); n != live0 {
		t.Fatalf("plans still live after drain: %d, want %d", n, live0)
	}
	if n := workspace.Live(); n != buffers0 {
		t.Fatalf("workspace release imbalance after drain: %d buffers out, want %d", n, buffers0)
	}
}

// TestBindSamePatternAllocs pins a layer's steady state at zero allocations:
// binding the pattern a plan already has is a pointer comparison.
func TestBindSamePatternAllocs(t *testing.T) {
	a := cacheTestCSR(32, 128, 3)
	p := spmmPlan(a, 4)
	defer p.Release()
	if allocs := testing.AllocsPerRun(100, func() { p.Bind(a) }); allocs != 0 {
		t.Fatalf("binding the bound pattern allocates: %.1f allocs/op, want 0", allocs)
	}
}

package fuse

import (
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

// spmmBuilder compiles the smallest useful plan (one SpMM) against a.
func spmmBuilder(a *sparse.CSR, in int, compiles *int) func(ws *tensor.Arena) *Plan {
	return func(ws *tensor.Arena) *Plan {
		if compiles != nil {
			*compiles++
		}
		g := NewGraph("cachetest", a)
		h := g.InputDense("H", a.Cols, in)
		g.SetOutput(g.SpMM("Z", g.Adj(), h))
		return g.MustCompile(Options{SpanPrefix: "cachetest.", Workspace: ws})
	}
}

func TestPlanCacheHitMiss(t *testing.T) {
	c := NewPlanCache(0) // unlimited
	a := cacheTestCSR(32, 128, 1)
	key := KeyFor(a, 4, tensor.F64, "spmm-test")
	compiles := 0
	build := spmmBuilder(a, 4, &compiles)

	hits0, misses0 := metrics.PlanCacheHits.Value(), metrics.PlanCacheMisses.Value()

	l1 := c.Get(key, build)
	if compiles != 1 {
		t.Fatalf("first Get compiled %d times, want 1", compiles)
	}
	// Same key while l1 is leased: plans are exclusive, so a second plan
	// must be compiled rather than shared.
	l2 := c.Get(key, build)
	if compiles != 2 {
		t.Fatalf("concurrent Get compiled %d times total, want 2", compiles)
	}
	p1, p2 := l1.Plan(), l2.Plan()
	if p1 == p2 {
		t.Fatal("two live leases returned the same plan")
	}
	l1.Release()
	l2.Release()
	if got := c.Len(); got != 2 {
		t.Fatalf("idle plans after release = %d, want 2", got)
	}

	// Now both are idle: the next two Gets must be hits, no compiles.
	l3 := c.Get(key, build)
	l4 := c.Get(key, build)
	if compiles != 2 {
		t.Fatalf("hit path compiled (total %d compiles)", compiles)
	}
	if l3.Plan() != p2 || l4.Plan() != p1 {
		t.Fatal("hits did not return the pooled plans (LIFO order)")
	}
	l3.Release()
	l4.Release()

	if d := metrics.PlanCacheMisses.Value() - misses0; d != 2 {
		t.Fatalf("agnn_plancache_misses delta = %d, want 2", d)
	}
	if d := metrics.PlanCacheHits.Value() - hits0; d != 2 {
		t.Fatalf("agnn_plancache_hits delta = %d, want 2", d)
	}

	// Release is idempotent.
	l3.Release()
	if got := c.Len(); got != 2 {
		t.Fatalf("idle plans after double release = %d, want 2", got)
	}

	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 || c.Leased() != 0 {
		t.Fatalf("purge left len=%d bytes=%d leased=%d", c.Len(), c.Bytes(), c.Leased())
	}
	if live := c.arenaLive(); live != 0 {
		t.Fatalf("arena buffers outstanding after purge: %d", live)
	}
}

func TestPlanCacheDistinctKeys(t *testing.T) {
	c := NewPlanCache(0)
	const K = 6
	compiles := 0
	adjs := make([]*sparse.CSR, K)
	keys := make([]CacheKey, K)
	for i := range adjs {
		adjs[i] = cacheTestCSR(32, 96, int64(100+i))
		keys[i] = KeyFor(adjs[i], 4, tensor.F64, "spmm-test")
	}
	// Two sweeps: the first compiles each key once, the second hits.
	for sweep := 0; sweep < 2; sweep++ {
		for i := range keys {
			l := c.Get(keys[i], spmmBuilder(adjs[i], 4, &compiles))
			l.Release()
		}
	}
	if compiles != K {
		t.Fatalf("compiled %d plans over 2 sweeps of %d keys, want %d", compiles, K, K)
	}
	// Same adjacency content under a different signature is a different plan.
	l := c.Get(KeyFor(adjs[0], 4, tensor.F64, "other-sig"), spmmBuilder(adjs[0], 4, &compiles))
	l.Release()
	if compiles != K+1 {
		t.Fatalf("distinct signature did not compile (total %d)", compiles)
	}
	c.Purge()
	if live := c.arenaLive(); live != 0 {
		t.Fatalf("arena buffers outstanding after purge: %d", live)
	}
}

// TestPlanCacheKeyGuardsCols: a row block and a wider block with the same
// rows, entries and values differ only in their column count — the plan's
// input height — so even under a fingerprint collision they must lease
// different plans.
func TestPlanCacheKeyGuardsCols(t *testing.T) {
	c := NewPlanCache(0)
	narrow := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 3}, Col: []int32{0, 2, 1}, Val: []float64{1, 2, 3}}
	wide := &sparse.CSR{Rows: 2, Cols: 5, RowPtr: narrow.RowPtr, Col: narrow.Col, Val: narrow.Val}
	kn, kw := KeyFor(narrow, 4, tensor.F64, "spmm-test"), KeyFor(wide, 4, tensor.F64, "spmm-test")
	kw.Adj = kn.Adj // the collision the guard is for
	if kn == kw {
		t.Fatal("keys of a 2×3 and a 2×5 block are equal")
	}
	compiles := 0
	ln := c.Get(kn, spmmBuilder(narrow, 4, &compiles))
	ln.Release()
	lw := c.Get(kw, spmmBuilder(wide, 4, &compiles))
	defer lw.Release()
	if compiles != 2 {
		t.Fatalf("compiled %d plans for two column counts, want 2", compiles)
	}
	if out := lw.Plan().Forward(tensor.NewDense(5, 4)); out.Rows != 2 {
		t.Fatalf("the 2×5 block's plan wrote %d rows, want 2", out.Rows)
	}
}

func TestPlanCacheBudgetEviction(t *testing.T) {
	c := NewPlanCache(1) // 1 byte: nothing fits, everything evicts on release
	a := cacheTestCSR(32, 128, 2)
	key := KeyFor(a, 8, tensor.F64, "spmm-test")
	ev0 := metrics.PlanCacheEvictions.Value()

	l := c.Get(key, spmmBuilder(a, 8, nil))
	if c.Bytes() != 0 {
		t.Fatalf("leased plan counted as resident: %d bytes", c.Bytes())
	}
	l.Release()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("budget not enforced: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if d := metrics.PlanCacheEvictions.Value() - ev0; d != 1 {
		t.Fatalf("agnn_plancache_evictions delta = %d, want 1", d)
	}
	if live := c.arenaLive(); live != 0 {
		t.Fatalf("arena buffers outstanding after eviction: %d", live)
	}

	// Raising the budget makes plans resident again.
	c.SetBudget(0)
	l = c.Get(key, spmmBuilder(a, 8, nil))
	l.Release()
	if c.Len() != 1 || c.Bytes() == 0 {
		t.Fatalf("unlimited budget did not retain plan: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// Shrinking the budget evicts retroactively.
	c.SetBudget(1)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("SetBudget did not evict: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

// TestPlanCacheConcurrentHammer drives get/release/evict from many
// goroutines under a deliberately tiny budget so eviction churns
// constantly. Run under -race in CI. The invariant at full drain: every
// workspace buffer went back to its arena exactly once (Live == 0 — a
// double release would drive it negative, a leak positive).
func TestPlanCacheConcurrentHammer(t *testing.T) {
	c := NewPlanCache(64 << 10)
	const (
		K     = 5
		G     = 8
		iters = 200
	)
	adjs := make([]*sparse.CSR, K)
	keys := make([]CacheKey, K)
	for i := range adjs {
		adjs[i] = cacheTestCSR(24, 64, int64(200+i))
		keys[i] = KeyFor(adjs[i], 4, tensor.F64, "hammer")
	}
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([]Lease, 0, 4)
			for i := 0; i < iters; i++ {
				k := rng.Intn(K)
				l := c.Get(keys[k], spmmBuilder(adjs[k], 4, nil))
				held = append(held, l)
				if len(held) > 3 || rng.Intn(2) == 0 {
					j := rng.Intn(len(held))
					held[j].Release()
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			}
			for i := range held {
				held[i].Release()
			}
		}(int64(g))
	}
	wg.Wait()

	if leased := c.Leased(); leased != 0 {
		t.Fatalf("plans still leased after drain: %d", leased)
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("purge left len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if live := c.arenaLive(); live != 0 {
		t.Fatalf("workspace release imbalance after drain: arena live = %d", live)
	}
}

// TestPlanCacheHitAllocs pins the hit path at zero allocations: a warm
// get/release cycle must not allocate (the property that keeps cached
// rebinds off the garbage collector's ledger).
func TestPlanCacheHitAllocs(t *testing.T) {
	c := NewPlanCache(0)
	a := cacheTestCSR(32, 128, 3)
	key := KeyFor(a, 4, tensor.F64, "alloc-test")
	l := c.Get(key, spmmBuilder(a, 4, nil))
	l.Release()
	mustNotCompile := func(ws *tensor.Arena) *Plan {
		panic("cache hit expected; compile reached")
	}
	allocs := testing.AllocsPerRun(100, func() {
		h := c.Get(key, mustNotCompile)
		h.Release()
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates: %.1f allocs/op, want 0", allocs)
	}
}

// Package par provides small parallel-execution helpers shared by all
// compute kernels in this repository. The kernels follow the same pattern
// the paper's CUDA implementation uses — grid-stride work distribution over
// contiguous index ranges — translated to goroutines: a persistent worker
// pool processes disjoint [lo, hi) ranges of rows or non-zeros.
//
// Work is dispatched to long-lived pool workers over a buffered channel
// (see pool.go) instead of spawning a goroutine per chunk, so overlapped
// kernels and collectives don't fight the scheduler, and the dispatch path
// performs no allocations in steady state (tasks travel by value, completion
// channels are recycled).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers is the process-wide parallelism cap. It defaults to
// runtime.GOMAXPROCS(0) and can be lowered for deterministic profiling.
var (
	mu         sync.RWMutex
	maxWorkers = runtime.GOMAXPROCS(0)
)

// SetWorkers sets the number of workers used by Range and Do.
// n < 1 resets to runtime.GOMAXPROCS(0). It returns the previous value.
func SetWorkers(n int) int {
	mu.Lock()
	defer mu.Unlock()
	prev := maxWorkers
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
	return prev
}

// Workers reports the current worker cap.
func Workers() int {
	mu.RLock()
	defer mu.RUnlock()
	return maxWorkers
}

// minGrain is the smallest total range worth parallelizing at all. Below
// this the dispatch overhead dominates the work and fn runs inline.
const minGrain = 256

// chunkGrain is the smallest per-chunk range worth dispatching to a pool
// worker once a range is split. Without it, n barely above minGrain with a
// large worker cap degenerates into dozens of tiny chunks (n=257 with 64
// workers used to dispatch ~52 chunks of ~5 rows each).
const chunkGrain = 64

// splitWorkers returns the effective number of chunks to split n indices
// into under cap w, enforcing the chunkGrain floor.
func splitWorkers(n, w int) int {
	if w > n {
		w = n
	}
	if max := (n + chunkGrain - 1) / chunkGrain; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Range runs fn over [0, n) split into at most Workers() contiguous chunks.
// fn receives a worker id in [0, workers) and its [lo, hi) range. Ranges are
// balanced by count; use RangeWeighted when per-index work is skewed.
// When n is small, fn runs inline on the calling goroutine.
func Range(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w == 1 || n <= minGrain {
		fn(0, 0, n)
		return
	}
	w = splitWorkers(n, w)
	if w == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + w - 1) / w
	runEven(n, chunk, fn)
}

// Split is Range without the inline threshold: fn runs over [0, n) in at
// most Workers() contiguous chunks however small n is. It is for a few
// indices that each carry a worker's worth of work — a column of a tall
// matrix — which Range would run inline on the caller.
func Split(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := min(Workers(), n)
	if w == 1 {
		fn(0, 0, n)
		return
	}
	runEven(n, (n+w-1)/w, fn)
}

// RangeWeighted runs fn over [0, n) split into at most Workers() chunks of
// approximately equal total weight, where weight(i) is the cost of index i
// (e.g. the number of non-zeros in row i of a sparse matrix). This is the
// nnz-balanced schedule used by every sparse kernel; DESIGN.md calls the
// row-count-balanced alternative out for ablation. For steady-state call sites (compiled plan
// ops) prefer NewCuts + RangeCuts, which hoists the O(n) weight scan out of
// the hot path.
func RangeWeighted(n int, weight func(i int) int64, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w == 1 || n <= minGrain {
		fn(0, 0, n)
		return
	}
	w = splitWorkers(n, w)
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var bounds [maxStackChunks + 1]int
	cuts := weightedCuts(n, weight, w, bounds[:0])
	if cuts == nil { // zero total weight: fall back to count balancing
		chunk := (n + w - 1) / w
		runEven(n, chunk, fn)
		return
	}
	runBounds(cuts, fn)
}

// maxStackChunks bounds the scratch boundary array RangeWeighted keeps on
// the stack: the weighted scheduler emits at most w chunks.
const maxStackChunks = 512

// weightedCuts computes the chunk boundaries of the weighted schedule into
// dst (reused storage): dst[0] = 0, dst[len-1] = n, at most w chunks, so
// worker ids stay below w. Returns nil when the total weight is zero.
func weightedCuts(n int, weight func(i int) int64, w int, dst []int) []int {
	var total int64
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	if total <= 0 {
		return nil
	}
	target := (total + int64(w) - 1) / int64(w)
	dst = append(dst, 0)
	var acc int64
	// After w−1 cuts the rest is the last chunk. When the cuts land exactly on
	// the target, what follows the (w−1)th holds the remaining weight and any
	// zero-weight tail, which would otherwise open a chunk of its own.
	for i := 0; i < n-1 && len(dst) < w; i++ {
		acc += weight(i)
		if acc >= target {
			dst = append(dst, i+1)
			acc = 0
		}
	}
	return append(dst, n)
}

// Cuts caches the weight-balanced chunk boundaries for a fixed weight
// layout (e.g. one sparsity pattern's row-nnz profile), so steady-state
// callers — compiled plan ops above all — pay zero scan cost per call.
// Compute once at plan-compile time with NewCuts, execute with RangeCuts.
// The cuts transparently recompute if the worker cap changes.
type Cuts struct {
	n      int
	weight func(i int) int64
	cached atomic.Pointer[cutSet]
}

type cutSet struct {
	w      int // worker cap the boundaries were computed for
	bounds []int
}

// NewCuts precomputes weight-balanced boundaries over [0, n) for the
// current worker cap. The weight closure is retained for recomputation
// when SetWorkers changes the cap.
func NewCuts(n int, weight func(i int) int64) *Cuts {
	c := &Cuts{n: n, weight: weight}
	c.compute(Workers())
	return c
}

// Reset makes c cut [0, n) under its weight closure, which must now describe
// the new layout (a plan bound to another pattern): the boundaries are
// computed on the first RangeCuts that splits the range, so a range too short
// to split never scans its weights.
func (c *Cuts) Reset(n int) {
	c.n = n
	c.cached.Store(nil)
}

func (c *Cuts) compute(w int) *cutSet {
	cs := &cutSet{w: w}
	if c.n > 0 {
		eff := splitWorkers(c.n, w)
		if eff > 1 {
			cs.bounds = weightedCuts(c.n, c.weight, eff, make([]int, 0, eff+1))
		}
		if cs.bounds == nil {
			cs.bounds = evenCuts(c.n, eff)
		}
	}
	c.cached.Store(cs)
	return cs
}

func evenCuts(n, w int) []int {
	chunk := (n + w - 1) / w
	bounds := make([]int, 1, w+1)
	for lo := chunk; lo < n; lo += chunk {
		bounds = append(bounds, lo)
	}
	return append(bounds, n)
}

// RangeCuts is RangeWeighted over precomputed boundaries: fn runs over the
// cached chunks with distinct worker ids, with no weight scan on the call
// path. Inline fast paths match Range/RangeWeighted.
func RangeCuts(c *Cuts, fn func(worker, lo, hi int)) {
	n := c.n
	if n <= 0 {
		return
	}
	w := Workers()
	if w == 1 || n <= minGrain {
		fn(0, 0, n)
		return
	}
	cs := c.cached.Load()
	if cs == nil || cs.w != w {
		cs = c.compute(w)
	}
	if len(cs.bounds) <= 2 {
		fn(0, 0, n)
		return
	}
	runBounds(cs.bounds, fn)
}

// Do runs the given thunks concurrently on the worker pool and waits for
// all of them.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	if Workers() == 1 {
		for _, f := range fns {
			f()
		}
		return
	}
	runEven(len(fns), 1, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}

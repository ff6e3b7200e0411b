package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRangeCoversAllIndices(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	for name, run := range map[string]func(int, func(worker, lo, hi int)){"Range": Range, "Split": Split} {
		for _, n := range []int{0, 1, 2, 7, 255, 256, 257, 1000, 4096} {
			seen := make([]int32, n)
			var workers sync.Map
			run(n, func(worker, lo, hi int) {
				workers.Store(worker, true)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("%s n=%d: index %d visited %d times", name, n, i, c)
				}
			}
			// Split hands even a few indices to as many workers as there are.
			if _, ok := workers.Load(min(n, 3) - 1); name == "Split" && n > 0 && !ok {
				t.Errorf("Split n=%d: worker %d got no chunk", n, min(n, 3)-1)
			}
		}
	}
}

func TestRangeZeroAndNegative(t *testing.T) {
	called := false
	Range(0, func(_, _, _ int) { called = true })
	Range(-5, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("fn called for non-positive n")
	}
}

func TestRangeWeightedCoversAllIndices(t *testing.T) {
	weights := []int64{0, 1, 1000, 3, 0, 0, 50, 50, 50, 1}
	n := 5000
	seen := make([]int32, n)
	RangeWeighted(n, func(i int) int64 { return weights[i%len(weights)] }, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestRangeWeightedAllZeroWeights(t *testing.T) {
	n := 4000
	var count int64
	RangeWeighted(n, func(int) int64 { return 0 }, func(_, lo, hi int) {
		atomic.AddInt64(&count, int64(hi-lo))
	})
	if count != int64(n) {
		t.Fatalf("covered %d of %d indices", count, n)
	}
}

func TestRangePropertyPartition(t *testing.T) {
	// Property: for any n, the emitted ranges are a disjoint partition of [0,n).
	f := func(raw uint16) bool {
		n := int(raw)
		var mu sync.Mutex
		var ranges [][2]int
		Range(n, func(_, lo, hi int) {
			mu.Lock()
			ranges = append(ranges, [2]int{lo, hi})
			mu.Unlock()
		})
		covered := 0
		for _, r := range ranges {
			if r[0] < 0 || r[1] > n || r[0] >= r[1] {
				return false
			}
			covered += r[1] - r[0]
		}
		return covered == n || (n == 0 && covered == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	if Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", Workers())
	}
	// Worker ids must stay within the cap.
	var bad int32
	Range(100000, func(id, _, _ int) {
		if id >= 2 && Workers() == 2 {
			// ids can exceed cap only if chunking produced more chunks
			// than workers; Range guarantees at most Workers chunks.
			atomic.AddInt32(&bad, 1)
		}
	})
	if bad != 0 {
		t.Fatalf("%d chunks had worker id >= cap", bad)
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatal("SetWorkers(0) should reset to >=1")
	}
}

func TestDo(t *testing.T) {
	var a, b, c int32
	Do(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("Do did not run all thunks: %d %d %d", a, b, c)
	}
	Do(func() { atomic.AddInt32(&a, 1) }) // single-thunk fast path
	if a != 2 {
		t.Fatal("single-thunk Do did not run")
	}
}

func TestRangeWeightedSmallNRunsInline(t *testing.T) {
	count := 0
	RangeWeighted(10, func(int) int64 { return 1 }, func(w, lo, hi int) {
		if w != 0 {
			t.Fatal("small n must run on worker 0")
		}
		count += hi - lo
	})
	if count != 10 {
		t.Fatalf("covered %d", count)
	}
	RangeWeighted(0, func(int) int64 { return 1 }, func(_, _, _ int) {
		t.Fatal("fn called for n=0")
	})
}

func TestRangeWeightedParallelBalancing(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	// One extremely heavy index: its chunk should be (nearly) alone.
	n := 4000
	weight := func(i int) int64 {
		if i == 0 {
			return 1_000_000
		}
		return 1
	}
	var mu sync.Mutex
	var chunks [][2]int
	RangeWeighted(n, weight, func(_, lo, hi int) {
		mu.Lock()
		chunks = append(chunks, [2]int{lo, hi})
		mu.Unlock()
	})
	covered := 0
	var heavy [2]int
	for _, c := range chunks {
		covered += c[1] - c[0]
		if c[0] == 0 {
			heavy = c
		}
	}
	if covered != n {
		t.Fatalf("covered %d of %d", covered, n)
	}
	if heavy[1]-heavy[0] > 2 {
		t.Fatalf("heavy index chunk spans %d indices; balancing broken", heavy[1]-heavy[0])
	}
}

// TestWeightedWorkerIDsBelowCap cuts weights that the workers' shares divide
// exactly, followed by zero-weight indices: every cut lands on the target, and
// the zero-weight tail must join the last chunk, so no worker id reaches the
// cap. Both weighted schedulers are checked.
func TestWeightedWorkerIDsBelowCap(t *testing.T) {
	for _, w := range []int{2, 3, 4, 7} {
		prev := SetWorkers(w)
		n := 200*w + 5 // past minGrain, so even 2 workers split
		weight := func(i int) int64 {
			if i < 200*w {
				return 1
			}
			return 0
		}
		cuts := NewCuts(n, weight)
		for name, run := range map[string]func(func(worker, lo, hi int)){
			"RangeWeighted": func(fn func(worker, lo, hi int)) { RangeWeighted(n, weight, fn) },
			"RangeCuts":     func(fn func(worker, lo, hi int)) { RangeCuts(cuts, fn) },
		} {
			seen := make([]int32, n)
			var bad atomic.Int32
			run(func(worker, lo, hi int) {
				if worker < 0 || worker >= w {
					bad.Add(1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			if bad.Load() != 0 {
				t.Errorf("%s workers=%d: %d chunks had a worker id outside [0, %d)", name, w, bad.Load(), w)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("%s workers=%d: index %d visited %d times", name, w, i, c)
				}
			}
		}
		SetWorkers(prev)
	}
}

func TestRangeWeightedSingleWorker(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	count := 0
	RangeWeighted(5000, func(int) int64 { return 2 }, func(_, lo, hi int) {
		count += hi - lo
	})
	if count != 5000 {
		t.Fatalf("covered %d", count)
	}
}

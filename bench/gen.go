package main

import (
	"math"
	"math/rand"
)

// Input generation. Everything a workload feeds the program — edge list,
// features, labels, query stream — is made here from the seed, so a
// refactor of the program's own generators (internal/graph) cannot change a
// workload. Generation time is reported as gen_s and is never part of
// setup_s.

// edgeList is a directed edge list over n vertices. The generators emit
// both directions of every undirected edge, in generation order, with
// duplicates left in: sorting and de-duplicating is the program's job
// (sparse.FromCOO) and part of setup_s.
type edgeList struct {
	n        int
	src, dst []int32
}

func (e *edgeList) add(i, j int32) {
	e.src = append(e.src, i, j)
	e.dst = append(e.dst, j, i)
}

// connectIsolated gives every vertex without an edge one random neighbour,
// so no attention row is empty.
func (e *edgeList) connectIsolated(rng *rand.Rand) {
	seen := make([]bool, e.n)
	for _, v := range e.src {
		seen[v] = true
	}
	for v := 0; v < e.n; v++ {
		if seen[v] {
			continue
		}
		u := rng.Intn(e.n - 1)
		if u >= v {
			u++
		}
		e.add(int32(v), int32(u))
	}
}

// genRMAT draws edgeFactor·2^scale undirected edges by recursive quadrant
// sampling with the Graph500 initiator (0.57, 0.19, 0.19, 0.05). The result
// has a few hub rows thousands of entries long and a long tail of short
// ones, which is what makes row scheduling and load balance visible.
func genRMAT(scale, edgeFactor int, seed int64) *edgeList {
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	e := &edgeList{n: n, src: make([]int32, 0, 2*m+n), dst: make([]int32, 0, 2*m+n)}
	const a, b, c = 0.57, 0.19, 0.19
	for k := 0; k < m; k++ {
		var i, j int32
		for lvl := 0; lvl < scale; lvl++ {
			switch r := rng.Float64(); {
			case r < a:
			case r < a+b:
				j |= 1 << lvl
			case r < a+b+c:
				i |= 1 << lvl
			default:
				i |= 1 << lvl
				j |= 1 << lvl
			}
		}
		if i != j {
			e.add(i, j)
		}
	}
	e.connectIsolated(rng)
	return e
}

// genPlanted draws a planted-partition graph in O(m): vertex v has class
// v mod classes and emits inHalf edges to uniform vertices of its own class
// and outHalf edges to uniform vertices of any class, so the mean degree is
// about 2·(inHalf+outHalf) and rows are short and uniform.
func genPlanted(n, classes, inHalf, outHalf int, seed int64) (*edgeList, []int) {
	rng := rand.New(rand.NewSource(seed))
	per := n / classes
	labels := make([]int, n)
	m := n * (inHalf + outHalf)
	e := &edgeList{n: n, src: make([]int32, 0, 2*m), dst: make([]int32, 0, 2*m)}
	for v := 0; v < n; v++ {
		c := v % classes
		labels[v] = c
		for k := 0; k < inHalf; k++ {
			if u := rng.Intn(per)*classes + c; u != v {
				e.add(int32(v), int32(u))
			}
		}
		for k := 0; k < outHalf; k++ {
			if u := rng.Intn(n); u != v {
				e.add(int32(v), int32(u))
			}
		}
	}
	return e, labels
}

// genFeatures returns n×k row-major N(0,1) features. With labels, column
// labels[v] of row v is shifted by signal, which makes the classes
// learnable from features and neighbours together.
func genFeatures(n, k int, labels []int, signal float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for v, c := range labels {
		x[v*k+c] += signal
	}
	return x
}

// uniformLabels assigns v mod classes: a task with nothing to learn, used
// where only the arithmetic matters.
func uniformLabels(n, classes int) []int {
	l := make([]int, n)
	for v := range l {
		l[v] = v % classes
	}
	return l
}

// arrival is one request of an open-loop schedule: when it is due, counted
// from the start of its rate rung, and which vertex it asks about.
type arrival struct {
	due    float64 // seconds
	vertex int
}

// zipfPool picks pool distinct vertices; rank r of the pool is queried with
// probability ∝ 1/(r+1)^s. A few hot vertices repeat (plan-cache hits) and
// a long tail keeps arriving (misses, compiles, evictions).
type zipfPool struct {
	vertices []int
	cdf      []float64
}

func newZipfPool(n, pool int, s float64, rng *rand.Rand) *zipfPool {
	z := &zipfPool{vertices: rng.Perm(n)[:pool], cdf: make([]float64, pool)}
	sum := 0.0
	for r := range z.cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipfPool) draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return z.vertices[lo]
}

// poissonSchedule draws arrivals at the given rate for the given duration
// with exponential gaps.
func poissonSchedule(rate, seconds float64, z *zipfPool, rng *rand.Rand) []arrival {
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		out = append(out, arrival{due: t, vertex: z.draw(rng)})
	}
	return out
}

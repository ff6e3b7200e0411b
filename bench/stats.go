package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tailQuantile is the highest percentile of n samples that still has ten
// samples beyond it, capped at the 95th: the tail a run of this length can
// support. With fewer than twenty samples it is the median.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.95, 1-10/float64(n)))
}

// spread is the distance between the first and third quartile as a share of
// the median, computed as Python's statistics.quantiles(xs, n=4) does, so
// -compare and the acceptance check agree.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(len(s)+1)) / 4
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (at(3) - at(1)) / math.Abs(median(s))
}

package sparse

import (
	"unsafe"

	"agnn/internal/tensor"
)

// The fourth row primitive: the epilogue of a cosine score row. AGNN's
// scores are β·(X·Xᵀ ⊘ n·nᵀ) on the pattern; GatherDots leaves the dot
// products of one row in dst, and CosineRow divides each by the product of
// the two norms and scales it — one divide per edge, which as a scalar loop
// was the largest piece of Go left in the float32 inference sweep. At
// float32 on an amd64 CPU with AVX2 it runs in assembly (cosine_amd64.s,
// eight lanes a pass, picked by the init that picks the other three); at
// float64 and everywhere else in the Go loop below, which is also what the
// tests hold the assembly to.

// asmCosine is the assembly kernel, set during package initialisation where
// the CPU has it (gather_amd64.go) and nil everywhere else. It takes any
// n ≥ 1 elements.
var asmCosine func(dst unsafe.Pointer, cols *int32, n int, b unsafe.Pointer, a, beta float32)

// CosineRow rewrites dst[q] as beta·(dst[q] / (a·b[cols[q]])) for every q,
// and as 0 where a·b[cols[q]] is zero (the zero-norm guard).
func CosineRow[T tensor.Elem](dst []T, cols Index, b []T, a, beta T) {
	n := len(cols.cols)
	dst = dst[:n]
	if asmCosine != nil && unsafe.Sizeof(a) == 4 && n > 0 && cols.windowsIn(len(b), 1, 0, 1) {
		asmCosine(base(dst), unsafe.SliceData(cols.cols), n, base(b), float32(a), float32(beta))
		return
	}
	cosineRowGo(dst, cols.cols, b, a, beta)
}

// cosineRowGo is CosineRow in Go, one element at a time. The norm is read
// through a one-element window of b, as the gather loops read their rows: an
// index outside b panics here, at its edge.
func cosineRowGo[T tensor.Elem](dst []T, cols []int32, b []T, a, beta T) {
	dst = dst[:len(cols)]
	for q, c := range cols {
		j := int(c)
		den := a * b[j : j+1][0]
		if den == 0 {
			dst[q] = 0
			continue
		}
		dst[q] = beta * (dst[q] / den)
	}
}

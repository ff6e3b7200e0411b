package sparse

import (
	"math"
	"unsafe"
)

// The third row primitive, beside GatherDots and GatherAxpy: the exponential
// of one max-subtracted score row, the middle pass of every float32 row
// softmax. Like the other two it runs in assembly on an amd64 CPU with AVX2
// (exprow_amd64.s, eight lanes a pass, picked by the same init) and in Go
// everywhere else; the Go loop over exp32 is also what the tests hold the
// assembly to. The assembly performs exp32's operations in exp32's order on
// every lane, so every result that is not a NaN has the same bits either way.

// asmExp is the assembly kernel, set during package initialisation where the
// CPU has it (gather_amd64.go) and nil everywhere else. It takes any n ≥ 1
// elements; dst may be src.
var asmExp func(dst, src unsafe.Pointer, n int, m float32)

// ExpRow writes exp(src[q] − m) to dst[q] for every q. dst may be src itself
// but must not overlap it otherwise.
func ExpRow(dst, src []float32, m float32) {
	dst = dst[:len(src)]
	if asmExp != nil && len(src) > 0 {
		asmExp(base(dst), base(src), len(src), m)
		return
	}
	expRowGo(dst, src, m)
}

// expRowGo is ExpRow in Go, one element at a time.
func expRowGo(dst, src []float32, m float32) {
	dst = dst[:len(src)]
	for q, v := range src {
		dst[q] = exp32(v - m)
	}
}

// exp32 is a single-precision exponential (Cephes expf scheme): argument
// reduction against ln2 in two steps, a degree-5 minimax polynomial on the
// reduced interval, and the power of two assembled directly in the exponent
// field. Accurate to ~2 ulp in float32 — indistinguishable from rounding
// math.Exp — at a fraction of the cost, which matters because the softmax
// sweeps evaluate it once per edge. The softmax callers always pass
// max-subtracted arguments (≤ 0), so the positive range never overflows.
func exp32(x float32) float32 {
	const (
		log2e = 1.44269504088896341
		c1    = 0.693359375    // ln2 high part
		c2    = -2.12194440e-4 // ln2 low part
		p0    = 1.9875691500e-4
		p1    = 1.3981999507e-3
		p2    = 8.3334519073e-3
		p3    = 4.1665795894e-2
		p4    = 1.6666665459e-1
		p5    = 5.0000001201e-1
	)
	if x > 88.72283 {
		return float32(math.Inf(1))
	}
	if x < -87.33655 {
		return 0
	}
	fn := float32(math.Floor(float64(x)*log2e + 0.5))
	r := x - fn*c1
	r -= fn * c2
	z := r * r
	p := (((((p0*r+p1)*r+p2)*r+p3)*r+p4)*r+p5)*z + r + 1
	return p * math.Float32frombits(uint32(int32(fn)+127)<<23)
}

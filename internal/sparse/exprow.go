package sparse

import (
	"math"
	"unsafe"

	"agnn/internal/tensor"
)

// The third row primitive, beside GatherDots and GatherAxpy: the exponential
// of one max-subtracted score row, the middle pass of every row softmax and
// of the cross-entropy. Like the other two it runs in assembly on an amd64
// CPU (exprow_amd64.s, picked by the same init) and in Go everywhere else;
// the Go loop is also what the tests hold the assembly to.
//
// At float32 the exponential is exp32 below, eight lanes a pass where the CPU
// has AVX2; the assembly performs exp32's operations in exp32's order on
// every lane. At float64 it is math.Exp, four lanes a pass where the CPU has
// AVX2 and FMA — which is where math.Exp itself takes its FMA path, the
// sequence the assembly replays lane by lane; a pass with a lane on one of
// math.Exp's special cases is handed back and goes through math.Exp. Either
// way every result that is not a NaN has the Go loop's bits.

// The assembly kernels, set during package initialisation where the CPU has
// them (gather_amd64.go) and nil everywhere else. Each takes any n ≥ 1
// elements; dst may be src. asmExp64 returns n, or the index of the first
// element of the first pass it left unwritten.
var (
	asmExp   func(dst, src unsafe.Pointer, n int, m float32)
	asmExp64 func(dst, src unsafe.Pointer, n int, m float64) int
)

// expPass64 is the lanes of one pass of the float64 kernel.
const expPass64 = 4

// ExpRow writes exp(src[q] − m) to dst[q] for every q: exp32 at float32,
// math.Exp at float64. dst may be src itself but must not overlap it
// otherwise.
func ExpRow[T tensor.Elem](dst, src []T, m T) {
	n := len(src)
	dst = dst[:n]
	switch {
	case n == 0:
	case unsafe.Sizeof(m) == 4 && asmExp != nil:
		asmExp(base(dst), base(src), n, float32(m))
	case unsafe.Sizeof(m) == 8 && asmExp64 != nil:
		for q := 0; q < n; {
			q += asmExp64(base(dst[q:]), base(src[q:]), n-q, float64(m))
			if q < n {
				end := min(q+expPass64, n)
				expRowGo(dst[q:end], src[q:end], m)
				q = end
			}
		}
	default:
		expRowGo(dst, src, m)
	}
}

// expRowGo is ExpRow in Go, one element at a time.
func expRowGo[T tensor.Elem](dst, src []T, m T) {
	dst = dst[:len(src)]
	for q, v := range src {
		if unsafe.Sizeof(m) == 4 {
			dst[q] = T(exp32(float32(v - m)))
		} else {
			dst[q] = T(math.Exp(float64(v - m)))
		}
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

package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// expSpecials are planted into every ExpRow test row: signed zeros,
// infinities, a NaN, the largest and smallest finite values, and exp32's two
// range thresholds with their neighbours one ulp either side.
func expSpecials() []float32 {
	s := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1, -1}
	for _, t := range []float32{88.72283, -87.33655} {
		s = append(s, math.Nextafter32(t, float32(math.Inf(-1))), t, math.Nextafter32(t, float32(math.Inf(1))))
	}
	return s
}

// expShifts are the row maxima the tests subtract: both zeros, so that x is
// src itself, and two values that make the subtraction round.
var expShifts = []float32{0, float32(math.Copysign(0, -1)), 1.5, -3}

// checkExpRow runs src through ExpRow into a fenced dst and again in place,
// and holds both to the scalar exp32(src[q] − m), bit for bit.
func checkExpRow(t testing.TB, src []float32, m float32) {
	t.Helper()
	want := make([]float32, len(src))
	for q, v := range src {
		want[q] = exp32(v - m)
	}
	dst, intact := fenced(make([]float32, len(src)))
	ExpRow(dst, src, m)
	if !intact() {
		t.Fatalf("len=%d m=%v: ExpRow wrote outside dst", len(src), m)
	}
	inPlace, intact := fenced(src)
	ExpRow(inPlace, inPlace, m)
	if !intact() {
		t.Fatalf("len=%d m=%v: ExpRow in place wrote outside the row", len(src), m)
	}
	loop := make([]float32, len(src))
	expRowGo(loop, src, m)
	for q := range want {
		if !sameBits(dst[q], want[q]) || !sameBits(inPlace[q], want[q]) || !sameBits(loop[q], want[q]) {
			t.Fatalf("len=%d m=%v: exp(%v [%#08x]) = %v (ExpRow), %v (in place), %v (Go loop), exp32 gives %v",
				len(src), m, src[q], math.Float32bits(src[q]), dst[q], inPlace[q], loop[q], want[q])
		}
	}
}

// TestExpRowBitwise: the exported primitive (the assembly where the CPU has
// it) returns exp32's bits — on 2²⁴ float32 bit patterns spread evenly over
// the whole encoding space (so every exponent, NaNs and subnormals
// included), on the special values, at every shift, at the row lengths
// around the kernel's eight-lane pass and its Go tail, and when dst is src.
func TestExpRowBitwise(t *testing.T) {
	// 2²² patterns per shift, each shift on its own residue of the stride.
	const stride, chunk = 1 << 10, 1 << 12
	src := make([]float32, chunk)
	for s, m := range expShifts {
		for bits := uint64(s * stride / len(expShifts)); bits < 1<<32; {
			for q := range src {
				src[q] = math.Float32frombits(uint32(bits))
				bits += stride
			}
			checkExpRow(t, src, m)
		}
	}
	rng := rand.New(rand.NewSource(20))
	specials := expSpecials()
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 10007} {
		for _, m := range expShifts {
			row := make([]float32, n)
			for q := range row {
				switch rng.Intn(4) {
				case 0:
					row[q] = specials[rng.Intn(len(specials))] + m
				case 1:
					row[q] = math.Float32frombits(rng.Uint32())
				default: // what a softmax passes: at or below the maximum
					row[q] = m - float32(rng.ExpFloat64()*8)
				}
			}
			checkExpRow(t, row, m)
		}
	}
	for _, m := range expShifts[:2] {
		checkExpRow(t, specials, m)
	}
}

// FuzzExpRow reads the shift and then the row as raw float32 bit patterns.
func FuzzExpRow(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	for _, v := range append([]float32{1.5}, expSpecials()...) {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	f.Add(seed)
	f.Add(seed[:4*(1+8)]) // one whole pass, no partial one
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float32, len(data)/4)
		for q := range vals {
			vals[q] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*q:]))
		}
		if len(vals) == 0 {
			vals = []float32{0}
		}
		checkExpRow(t, vals[1:], vals[0])
	})
}

// BenchmarkExpRow is the kernel-level record of the third primitive: the
// exponentials of every score row of the infer-hub-shaped pattern, through
// the exported primitive and as "go" through the scalar loop under it.
func BenchmarkExpRow(b *testing.B) {
	pat := benchPattern(true)
	rng := rand.New(rand.NewSource(3))
	scores, out := make([]float32, pat.NNZ()), make([]float32, pat.NNZ())
	for q := range scores {
		scores[q] = -float32(rng.ExpFloat64() * 4)
	}
	for _, run := range []struct {
		name string
		exp  func(dst, src []float32, m float32)
	}{{"hub-f32", ExpRow}, {"hub-f32-go", expRowGo}} {
		b.Run(run.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i := 0; i < pat.Rows; i++ {
					lo, hi := pat.RowPtr[i], pat.RowPtr[i+1]
					run.exp(out[lo:hi], scores[lo:hi], 0)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(pat.NNZ())), "ns/edge")
		})
	}
}

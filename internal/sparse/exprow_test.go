package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"agnn/internal/tensor"
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

// expOracle is the scalar exponential ExpRow is held to: exp32 at float32,
// math.Exp at float64.
func expOracle[T tensor.Elem](x T) T {
	if v, ok := any(x).(float32); ok {
		return T(exp32(v))
	}
	return T(math.Exp(float64(x)))
}

// checkExpRow runs src through ExpRow into a fenced dst and again in place,
// and holds both, and the Go loop, to the scalar expOracle(src[q] − m), bit
// for bit.
func checkExpRow[T tensor.Elem](t testing.TB, src []T, m T) {
	t.Helper()
	want := make([]T, len(src))
	for q, v := range src {
		want[q] = expOracle(v - m)
	}
	dst, intact := fenced(make([]T, len(src)))
	ExpRow(dst, src, m)
	if !intact() {
		t.Fatalf("len=%d m=%v: ExpRow wrote outside dst", len(src), m)
	}
	inPlace, intact := fenced(src)
	ExpRow(inPlace, inPlace, m)
	if !intact() {
		t.Fatalf("len=%d m=%v: ExpRow in place wrote outside the row", len(src), m)
	}
	loop := make([]T, len(src))
	expRowGo(loop, src, m)
	for q := range want {
		if !sameBits(dst[q], want[q]) || !sameBits(inPlace[q], want[q]) || !sameBits(loop[q], want[q]) {
			t.Fatalf("len=%d m=%v: exp(%v [%#x]) = %v (ExpRow), %v (in place), %v (Go loop), the scalar gives %v",
				len(src), m, src[q], math.Float64bits(float64(src[q])), dst[q], inPlace[q], loop[q], want[q])
		}
	}
}

// expSpecials64 are planted into the float64 test rows: signed zeros,
// infinities, a NaN, the extreme finite values, and every neighbourhood where
// math.Exp leaves its ordinary path — its result turning subnormal and then
// zero (−708.39 … −746), the band it rounds to +Inf although exp is finite
// (709.44 … 709.78), its overflow cut-off and beyond — as steps across each
// range and the points one ulp either side of every boundary of e + 1023.
func expSpecials64() []float64 {
	s := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1, 710, 1000, -1000}
	for x := -708.39; x >= -746; x -= 0.37 {
		s = append(s, x)
	}
	for x := 709.43; x <= 709.79; x += 0.01 {
		s = append(s, x)
	}
	// e = round(x·log2e) crosses −1022.5 and 1023.5 here; math.Exp's
	// overflow test is against 709.782712893384.
	for _, edge := range []float64{-1022.5 / math.Log2E, 1023.5 / math.Log2E, 7.09782712893384e+02,
		-745.1332191019411, math.Log(math.SmallestNonzeroFloat64 * (1 << 52))} {
		lo, hi := edge, edge
		for k := 0; k < 4; k++ {
			s = append(s, lo, hi)
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
	}
	return s
}

// TestExpRowBitwise: the exported primitive (the assembly where the CPU has
// it) returns the scalar exponential's bits — exp32's at float32, math.Exp's
// at float64 — on bit patterns spread evenly over the whole encoding space
// (so every exponent, NaNs and subnormals included), on the special values,
// at every shift, at the row lengths around the kernels' passes and their
// masked last pass, and when dst is src.
func TestExpRowBitwise(t *testing.T) {
	t.Run("f32", func(t *testing.T) {
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
	})
	t.Run("f64", func(t *testing.T) {
		shifts := []float64{0, math.Copysign(0, -1), 1.5, -3}
		// 2²⁰ patterns per shift, each shift on its own residue of the stride.
		const stride, chunk = 1 << 44, 1 << 12
		src := make([]float64, chunk)
		for s, m := range shifts {
			bits := uint64(s) * (stride / uint64(len(shifts)))
			for done := 0; done < 1<<20; done += chunk {
				for q := range src {
					src[q] = math.Float64frombits(bits)
					bits += stride
				}
				checkExpRow(t, src, m)
			}
		}
		rng := rand.New(rand.NewSource(21))
		specials := expSpecials64()
		for n := 0; n <= 67; n++ {
			for _, m := range shifts {
				// Rows of what a softmax passes, and rows with specials
				// planted at every density: none, one, and a quarter.
				for _, density := range []int{0, 1, 4} {
					row := make([]float64, n)
					for q := range row {
						row[q] = m - rng.ExpFloat64()*8
						if density == 1 && q == n/2 || density == 4 && rng.Intn(4) == 0 {
							row[q] = specials[rng.Intn(len(specials))] + m
						}
					}
					checkExpRow(t, row, m)
				}
			}
		}
		for _, m := range shifts[:2] {
			checkExpRow(t, specials, m)
		}
	})
}

// FuzzExpRow reads the shift and then the row as raw bit patterns, four bytes
// an element at float32 and eight at float64.
func FuzzExpRow(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	for _, v := range append([]float32{1.5}, expSpecials()...) {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	f.Add(seed)
	f.Add(seed[:4*(1+8)]) // one whole float32 pass, no partial one
	var seed64 []byte
	for _, v := range append([]float64{0}, expSpecials64()...) {
		seed64 = binary.LittleEndian.AppendUint64(seed64, math.Float64bits(v))
	}
	f.Add(seed64)
	f.Add(seed64[:8*(1+4)]) // one whole float64 pass, no partial one
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float32, len(data)/4)
		for q := range vals {
			vals[q] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*q:]))
		}
		if len(vals) == 0 {
			vals = []float32{0}
		}
		checkExpRow(t, vals[1:], vals[0])
		vals64 := make([]float64, len(data)/8)
		for q := range vals64 {
			vals64[q] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*q:]))
		}
		if len(vals64) == 0 {
			vals64 = []float64{0}
		}
		checkExpRow(t, vals64[1:], vals64[0])
	})
}

// BenchmarkExpRow is the kernel-level record of the third primitive: the
// exponentials of every score row of the infer-hub-shaped pattern at
// float32 and of the train-flat-shaped one (28 edges a row) at float64,
// through the exported primitive and as "-go" through the scalar loop under
// it.
func BenchmarkExpRow(b *testing.B) {
	b.Run("hub-f32", func(b *testing.B) { benchExpRow(b, true, ExpRow[float32]) })
	b.Run("hub-f32-go", func(b *testing.B) { benchExpRow(b, true, expRowGo[float32]) })
	b.Run("flat-f64", func(b *testing.B) { benchExpRow(b, false, ExpRow[float64]) })
	b.Run("flat-f64-go", func(b *testing.B) { benchExpRow(b, false, expRowGo[float64]) })
}

func benchExpRow[T tensor.Elem](b *testing.B, hub bool, exp func(dst, src []T, m T)) {
	pat := benchPattern(hub)
	rng := rand.New(rand.NewSource(3))
	scores, out := make([]T, pat.NNZ()), make([]T, pat.NNZ())
	for q := range scores {
		scores[q] = -T(rng.ExpFloat64() * 4)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := 0; i < pat.Rows; i++ {
			lo, hi := pat.RowPtr[i], pat.RowPtr[i+1]
			exp(out[lo:hi], scores[lo:hi], 0)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(pat.NNZ())), "ns/edge")
}

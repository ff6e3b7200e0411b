package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"agnn/internal/tensor"
)

// refDots and refAxpy are the one-edge-at-a-time loops the primitives
// replaced, kept here as the oracle: the primitives regroup edges, never
// the order inside a sum, so they must agree with these bit for bit.
func refDots[T tensor.Elem](dst, x []T, cols []int32, y []T, ld, off int) {
	for q, c := range cols {
		yrow := y[int(c)*ld+off : int(c)*ld+off+len(x)]
		var s T
		for t, xv := range x {
			s += xv * yrow[t]
		}
		dst[q] = s
	}
}

func refAxpy[T tensor.Elem](acc, vals []T, cols []int32, x []T, ld, off int) {
	for q, c := range cols {
		v := vals[q]
		xrow := x[int(c)*ld+off : int(c)*ld+off+len(acc)]
		for t, xv := range xrow {
			acc[t] += v * xv
		}
	}
}

// sameBits compares bit patterns, so +0 and −0 differ. Two NaNs compare
// equal whatever their payload: when both operands of an add are NaN the
// hardware keeps the first one's payload, and which operand is first is the
// register allocator's choice, not the program's.
func sameBits[T tensor.Elem](a, b T) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	switch any(a).(type) {
	case float32:
		return math.Float32bits(float32(a)) == math.Float32bits(float32(b))
	default:
		return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	}
}

// specials are planted into otherwise random inputs.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// randVals draws n values; with special set about one in eight is a signed
// zero, an infinity or a NaN.
func randVals[T tensor.Elem](rng *rand.Rand, n int, special bool) []T {
	out := make([]T, n)
	for i := range out {
		if special && rng.Intn(8) == 0 {
			out[i] = T(specials[rng.Intn(len(specials))])
			continue
		}
		out[i] = T(rng.NormFloat64())
	}
	return out
}

// checkGatherRow runs both primitives and both oracles on one row and
// reports the first differing bit pattern.
func checkGatherRow[T tensor.Elem](t testing.TB, x, vals []T, cols []int32, m []T, ld, off int) {
	t.Helper()
	w := len(x)
	got, want := make([]T, len(cols)), make([]T, len(cols))
	GatherDots(got, x, cols, m, ld, off)
	refDots(want, x, cols, m, ld, off)
	for q := range want {
		if !sameBits(got[q], want[q]) {
			t.Fatalf("GatherDots len=%d w=%d ld=%d off=%d: dst[%d] = %v, reference %v", len(cols), w, ld, off, q, got[q], want[q])
		}
	}
	// The accumulator starts from x, so pre-existing contents are covered.
	acc, ref := append([]T(nil), x...), append([]T(nil), x...)
	GatherAxpy(acc, vals, cols, m, ld, off)
	refAxpy(ref, vals, cols, m, ld, off)
	for c := range ref {
		if !sameBits(acc[c], ref[c]) {
			t.Fatalf("GatherAxpy len=%d w=%d ld=%d off=%d: acc[%d] = %v, reference %v", len(cols), w, ld, off, c, acc[c], ref[c])
		}
	}
}

func testGatherRows[T tensor.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 10007}
	for _, w := range []int{1, 7, 32, 33} {
		// Whole rows, then a window inside wider rows.
		for _, win := range []struct{ ld, off int }{{w, 0}, {w + 5, 3}} {
			for _, special := range []bool{false, true} {
				// Seven source rows: every row longer than that repeats
				// column indices, adjacent ones included.
				const rows = 7
				m := randVals[T](rng, rows*win.ld, special)
				for _, n := range lengths {
					cols := make([]int32, n)
					for q := range cols {
						cols[q] = int32(rng.Intn(rows))
					}
					checkGatherRow(t, randVals[T](rng, w, special), randVals[T](rng, n, special), cols, m, win.ld, win.off)
				}
			}
		}
	}
}

// TestGatherRowsBitwise: the four-edges-per-pass primitives against the
// one-edge loops, at both widths, across the block boundary (row lengths
// 0–9, 63–65, a hub-sized row), odd and even feature widths, a column
// window, repeated columns, and inputs with ±0, ±Inf and NaN.
func TestGatherRowsBitwise(t *testing.T) {
	t.Run("f32", testGatherRows[float32])
	t.Run("f64", testGatherRows[float64])
}

// FuzzGatherRows decodes a row from raw bytes — width, window, column
// indices, then float64 bit patterns taken as they come, so every NaN
// payload, subnormal and infinity is reachable — and checks both widths
// against the oracles.
func FuzzGatherRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 5, 0, 1, 2, 3, 4})
	seed := []byte{32, 2, 9, 0, 0, 1, 1, 2, 6, 6, 6, 3}
	for _, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		const rows = 7
		w, off, n := 1+next()%40, next()%4, next()%70
		ld := w + off + next()%3
		cols := make([]int32, n)
		for q := range cols {
			cols[q] = int32(next() % rows)
		}
		value := func() float64 {
			if len(data) < 8 {
				return float64(next()) - 128
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		x64, vals64, m64 := make([]float64, w), make([]float64, n), make([]float64, rows*ld)
		for _, s := range [][]float64{x64, vals64, m64} {
			for i := range s {
				s[i] = value()
			}
		}
		checkGatherRow(t, x64, vals64, cols, m64, ld, off)
		x32, vals32, m32 := make([]float32, w), make([]float32, n), make([]float32, rows*ld)
		tensor.Cast(x32, x64)
		tensor.Cast(vals32, vals64)
		tensor.Cast(m32, m64)
		checkGatherRow(t, x32, vals32, cols, m32, ld, off)
	})
}

// benchPattern returns a CSR pattern at one of the two BENCHMARK.json
// shapes. hub: 2^16 vertices, R-MAT-like — half the edge endpoints drawn
// from a heavy-tailed distribution, and one row filled to about 9 600
// entries, the length of the longest infer-hub row. flat: 2^15 vertices of
// degree 28 with uniform endpoints, the train-flat shape.
func benchPattern(hub bool) *CSR {
	rng := rand.New(rand.NewSource(1))
	n, deg := 1<<15, 28
	if hub {
		n = 1 << 16
	}
	coo := NewCOO(n, n, n*deg)
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			j := rng.Intn(n)
			if hub && d%2 == 0 {
				j = int(float64(n) * math.Pow(rng.Float64(), 6))
			}
			coo.Append(int32(i), int32(j))
		}
	}
	if hub {
		for d := 0; d < 9600; d++ {
			coo.Append(0, int32(rng.Intn(n)))
		}
	}
	return FromCOO(coo)
}

// benchGather times single-threaded sweeps of a row primitive over every
// row of the pattern at k = 32 and reports time per edge and the computed
// traffic rate: per edge one column index, one gathered k-wide row and one
// score, written (dots) or read (axpy). The dots sweep is the SDDMM H·Hᵀ on
// the pattern, the axpy sweep the SpMM onto an n×k output.
func benchGather[T tensor.Elem](b *testing.B, hub, dots bool, gather func(a, b []T, cols []int32, m []T, ld, off int)) {
	const k = 32
	pat := benchPattern(hub)
	rng := rand.New(rand.NewSource(2))
	h := randVals[T](rng, pat.Cols*k, false)
	out := make([]T, pat.Rows*k)
	scores := randVals[T](rng, pat.NNZ(), false)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := 0; i < pat.Rows; i++ {
			lo, hi := pat.RowPtr[i], pat.RowPtr[i+1]
			if dots {
				gather(scores[lo:hi], h[i*k:(i+1)*k], pat.Col[lo:hi], h, k, 0)
			} else {
				gather(out[i*k:(i+1)*k], scores[lo:hi], pat.Col[lo:hi], h, k, 0)
			}
		}
	}
	edges := float64(b.N) * float64(pat.NNZ())
	fb := float64(unsafe.Sizeof(h[0]))
	b.ReportMetric(b.Elapsed().Seconds()*1e9/edges, "ns/edge")
	b.ReportMetric(edges*(4+fb*k+fb)/b.Elapsed().Seconds()/1e9, "GB/s")
}

// BenchmarkGatherDots and BenchmarkGatherAxpy are the kernel-level record of
// the four-edges-per-pass grouping: each shape runs the primitive and, as
// "scalar", the one-edge loop it replaced (EXPERIMENTS.md holds a run).
func BenchmarkGatherDots(b *testing.B) {
	b.Run("hub-f32", func(b *testing.B) { benchGather(b, true, true, GatherDots[float32]) })
	b.Run("hub-f32-scalar", func(b *testing.B) { benchGather(b, true, true, refDots[float32]) })
	b.Run("flat-f64", func(b *testing.B) { benchGather(b, false, true, GatherDots[float64]) })
	b.Run("flat-f64-scalar", func(b *testing.B) { benchGather(b, false, true, refDots[float64]) })
}

func BenchmarkGatherAxpy(b *testing.B) {
	b.Run("hub-f32", func(b *testing.B) { benchGather(b, true, false, GatherAxpy[float32]) })
	b.Run("hub-f32-scalar", func(b *testing.B) { benchGather(b, true, false, refAxpy[float32]) })
	b.Run("flat-f64", func(b *testing.B) { benchGather(b, false, false, GatherAxpy[float64]) })
	b.Run("flat-f64-scalar", func(b *testing.B) { benchGather(b, false, false, refAxpy[float64]) })
}

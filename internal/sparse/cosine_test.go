package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"agnn/internal/tensor"
)

// refCosine is the loop CosineRow replaced in AGNN's score row, kept as the
// oracle.
func refCosine[T tensor.Elem](dst []T, cols []int32, b []T, a, beta T) {
	for q, j := range cols {
		den := a * b[j]
		if den == 0 {
			dst[q] = 0
			continue
		}
		dst[q] = beta * (dst[q] / den)
	}
}

// checkCosineRow runs one row of dot products through CosineRow — in a
// fenced buffer, under every form an index comes in — through its Go loop
// and through the oracle, and holds all of them to the same bits.
func checkCosineRow[T tensor.Elem](t testing.TB, dots []T, cols []int32, b []T, a, beta T) {
	t.Helper()
	want := append([]T(nil), dots...)
	refCosine(want, cols, b, a, beta)
	loop := append([]T(nil), dots...)
	cosineRowGo(loop, cols, b, a, beta)
	for _, form := range rowIndexes(cols, len(b)) {
		got, intact := fenced(dots)
		CosineRow(got, form.idx, b, a, beta)
		if !intact() {
			t.Fatalf("len=%d (%s): CosineRow wrote outside dst", len(cols), form.how)
		}
		for q := range want {
			if !sameBits(got[q], want[q]) || !sameBits(loop[q], want[q]) {
				t.Fatalf("len=%d (%s) a=%v beta=%v: %v over norm %v = %v (CosineRow), %v (Go loop), reference %v",
					len(cols), form.how, a, beta, dots[q], b[cols[q]], got[q], loop[q], want[q])
			}
		}
	}
}

func testCosineRows[T tensor.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// The norms: ordinary ones, both zeros (the guard), infinities, a NaN, a
	// subnormal whose product with a small a underflows to zero.
	norms := append(randVals[T](rng, 24, false), 0, T(math.Copysign(0, -1)), T(math.Inf(1)), T(math.Inf(-1)),
		T(math.NaN()), T(math.SmallestNonzeroFloat32))
	lengths := []int{10007}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, a := range []T{1.25, 0, T(math.Copysign(0, -1)), 1e-30, T(math.Inf(1)), T(math.NaN())} {
			for _, beta := range []T{1, -0.75, 0, T(math.Inf(-1))} {
				cols := make([]int32, n)
				for q := range cols {
					cols[q] = int32(rng.Intn(len(norms)))
				}
				checkCosineRow(t, randVals[T](rng, n, true), cols, norms, a, beta)
			}
		}
	}
}

// TestCosineRowBitwise: the exported primitive (the assembly at float32
// where the CPU has it), its Go loop and the loop it replaced agree bit for
// bit at both widths — at every length around the kernel's eight-lane pass
// and its masked last one, on ±0, ±Inf and NaN among the dot products, the
// norms and the two scalars, and on denominators that are or round to zero.
func TestCosineRowBitwise(t *testing.T) {
	t.Run("f32", testCosineRows[float32])
	t.Run("f64", testCosineRows[float64])
}

// FuzzCosineRow reads a, β and eight norms as raw float32 bit patterns, then
// the row: a column byte and a dot product's bit pattern per edge.
func FuzzCosineRow(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	for _, v := range []float32{1.5, -2, 1, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN()), 3, 1e-38, -1} {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	for q := 0; q < 11; q++ { // one whole pass and a partial one
		seed = binary.LittleEndian.AppendUint32(append(seed, byte(q)), math.Float32bits(float32(q)-4))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		word := func() float32 {
			if len(data) < 4 {
				return 1
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
			return v
		}
		a, beta := word(), word()
		norms := make([]float32, 8)
		for i := range norms {
			norms[i] = word()
		}
		var cols []int32
		var dots []float32
		for len(data) >= 5 {
			cols = append(cols, int32(data[0])%int32(len(norms)))
			data = data[1:]
			dots = append(dots, word())
		}
		checkCosineRow(t, dots, cols, norms, a, beta)
		dots64, norms64 := make([]float64, len(dots)), make([]float64, len(norms))
		tensor.Cast(dots64, dots)
		tensor.Cast(norms64, norms)
		checkCosineRow(t, dots64, cols, norms64, float64(a), float64(beta))
	})
}

// BenchmarkCosineRow is the kernel-level record of the fourth primitive: the
// normalisation of every score row of the infer-hub-shaped pattern, through
// the exported primitive and as "go" through the loop under it.
func BenchmarkCosineRow(b *testing.B) {
	pat := benchPattern(true)
	idx := pat.Index()
	// Unit norms: the row is rewritten in place once per iteration, and with
	// any other value the scores would drift into subnormals or infinities.
	norms := make([]float32, pat.Cols)
	for i := range norms {
		norms[i] = 1
	}
	scores := randVals[float32](rand.New(rand.NewSource(5)), pat.NNZ(), false)
	for _, run := range []struct {
		name   string
		cosine func(dst []float32, cols Index, b []float32, a, beta float32)
	}{
		{"hub-f32", CosineRow[float32]},
		{"hub-f32-go", func(dst []float32, cols Index, b []float32, a, beta float32) {
			cosineRowGo(dst, cols.Cols(), b, a, beta)
		}},
	} {
		b.Run(run.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i := 0; i < pat.Rows; i++ {
					lo, hi := pat.RowPtr[i], pat.RowPtr[i+1]
					run.cosine(scores[lo:hi], idx.Slice(lo, hi), norms, norms[i], 1)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(pat.NNZ())), "ns/edge")
		})
	}
}

package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"agnn/internal/tensor"
)

// refDots and refAxpy are the one-edge-at-a-time loops the primitives
// replaced, kept here as the oracle: the primitives regroup edges (the Go
// loops) or map them to vector lanes (the assembly), never the order inside
// a sum, so all three must agree bit for bit.
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

// fenced copies s into the middle of a larger array of sentinels and returns
// the copy, its capacity clipped, with a check that every sentinel is still
// in place: a kernel that stores one element before or after its output is
// caught even though the store lands in memory the process owns.
func fenced[T tensor.Elem](s []T) ([]T, func() bool) {
	const pad, mark = 16, -7.25
	buf := make([]T, len(s)+2*pad)
	for i := range buf {
		buf[i] = mark
	}
	v := buf[pad : pad+len(s) : pad+len(s)]
	copy(v, s)
	return v, func() bool {
		for i := 0; i < pad; i++ {
			if buf[i] != mark || buf[pad+len(s)+i] != mark {
				return false
			}
		}
		return true
	}
}

// rowIndexes returns cols as the row primitives can be handed it: an index
// built for this call; the row sliced out of the index of a longer run whose
// largest entry is rows−1 (how a compiled plan passes a pattern row — the
// bound is the pattern's, not the row's); and the row sliced out of an index
// whose bound no operand satisfies, which must take the Go loops to the same
// bits.
func rowIndexes(cols []int32, rows int) []namedIndex {
	loose := append(append([]int32(nil), cols...), math.MaxInt32)
	return []namedIndex{
		{"per-call index", NewIndex(cols)},
		{"pattern index", patternIndex(cols, int32(rows-1))},
		{"loose bound", NewIndex(loose).Slice(0, int64(len(cols)))},
	}
}

type namedIndex struct {
	how string
	idx Index
}

// patternIndex returns cols as a slice of the index of a longer run that also
// holds other.
func patternIndex(cols []int32, other int32) Index {
	pad := []int32{other, 0, other}
	whole := append(append(append([]int32(nil), pad...), cols...), pad...)
	return NewIndex(whole).Slice(int64(len(pad)), int64(len(pad)+len(cols)))
}

// checkGatherRow runs one row through the exported primitives (assembly
// where the CPU has it, else the Go loops) under each of rowIndexes' forms,
// through the Go loops called directly and through the one-edge oracles, and
// reports the first bit pattern on which they do not all agree. m holds
// rows gathered rows.
func checkGatherRow[T tensor.Elem](t testing.TB, x, vals []T, cols []int32, m []T, rows, ld, off int) {
	t.Helper()
	w := len(x)
	loop, want := make([]T, len(cols)), make([]T, len(cols))
	gatherDotsGo(loop, x, cols, m, ld, off)
	refDots(want, x, cols, m, ld, off)
	// The accumulator starts from x, so pre-existing contents are covered.
	accLoop, ref := append([]T(nil), x...), append([]T(nil), x...)
	gatherAxpyGo(accLoop, vals, cols, m, ld, off)
	refAxpy(ref, vals, cols, m, ld, off)
	for _, form := range rowIndexes(cols, rows) {
		how, idx := form.how, form.idx
		got, intact := fenced(make([]T, len(cols)))
		GatherDots(got, x, idx, m, ld, off)
		if !intact() {
			t.Fatalf("dots (%s) len=%d w=%d ld=%d off=%d: GatherDots wrote outside dst", how, len(cols), w, ld, off)
		}
		for q := range want {
			if !sameBits(got[q], want[q]) || !sameBits(loop[q], want[q]) {
				t.Fatalf("dots (%s) len=%d w=%d ld=%d off=%d: dst[%d] = %v (GatherDots), %v (Go loop), reference %v",
					how, len(cols), w, ld, off, q, got[q], loop[q], want[q])
			}
		}
		acc, intact := fenced(x)
		GatherAxpy(acc, vals, idx, m, ld, off)
		if !intact() {
			t.Fatalf("axpy (%s) len=%d w=%d ld=%d off=%d: GatherAxpy wrote outside acc", how, len(cols), w, ld, off)
		}
		for c := range ref {
			if !sameBits(acc[c], ref[c]) || !sameBits(accLoop[c], ref[c]) {
				t.Fatalf("axpy (%s) len=%d w=%d ld=%d off=%d: acc[%d] = %v (GatherAxpy), %v (Go loop), reference %v",
					how, len(cols), w, ld, off, c, acc[c], accLoop[c], ref[c])
			}
		}
	}
}

func testGatherRows[T tensor.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Around the Go loops' four-edge pass, the assembly's eight-edge pass and
	// its overlapping last pass, and a hub-sized row. Under eight edges the
	// dots kernel runs on a padded copy of the row: checkGatherRow's dst ends
	// at element n−1 with the fence right behind it, so a pass that stored
	// its padding lanes would be caught.
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 10007}
	// Below a vector register, whole registers, whole four-register strips,
	// strips plus registers plus left-over columns, and widths the dot
	// kernels' transposes cannot step through (odd; 4k+2 at float32).
	for _, w := range []int{0, 1, 6, 7, 8, 16, 24, 31, 32, 33, 40, 64, 72} {
		// Whole rows; a window inside wider rows whose offset is no multiple
		// of a vector register (unaligned loads, ld > w); a one-element shift.
		for _, win := range []struct{ ld, off int }{{w, 0}, {w + 5, 3}, {w + 1, 1}} {
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
					checkGatherRow(t, randVals[T](rng, w, special), randVals[T](rng, n, special), cols, m, rows, win.ld, win.off)
				}
			}
		}
	}
}

// TestGatherRowsBitwise: the exported primitives, the Go loops and the
// one-edge loops agree bit for bit at both widths — across every seam of
// the two implementations in row length and feature width, on column
// windows, repeated columns, and inputs with ±0, ±Inf and NaN.
func TestGatherRowsBitwise(t *testing.T) {
	t.Run("f32", testGatherRows[float32])
	t.Run("f64", testGatherRows[float64])
}

// TestGatherRowsNamedElem: an element type that is only float32 underneath
// takes the same path as float32 itself.
func TestGatherRowsNamedElem(t *testing.T) {
	type weight float32
	rng := rand.New(rand.NewSource(16))
	cols := make([]int32, 21)
	for q := range cols {
		cols[q] = int32(rng.Intn(7))
	}
	checkGatherRow(t, randVals[weight](rng, 40, true), randVals[weight](rng, len(cols), true), cols, randVals[weight](rng, 7*43, true), 7, 43, 2)
}

// mustPanic runs f and fails unless it panics with a runtime error (an
// index or slice bound, not a fault: a wild read would kill the process).
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if _, ok := recover().(runtime.Error); !ok {
			t.Errorf("%s: no bounds panic", what)
		}
	}()
	f()
}

func testGatherBounds[T tensor.Elem](t *testing.T) {
	const rows, w, ld, off = 5, 32, 35, 3
	backing := make([]T, 64*ld)
	m := backing[: rows*ld : rows*ld]
	x, acc := make([]T, w), make([]T, w)
	// From one edge up: the short rows (axpy kernel from the first edge,
	// padded dots pass, Go loops) check their windows like the long ones.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 40} {
		for _, bad := range []int32{rows, rows + 40, -1, math.MinInt32, math.MaxInt32} {
			for _, at := range []int{0, n / 2, n - 1} {
				cols := make([]int32, n)
				cols[at] = bad
				// The index was built over the bad column either way — for
				// this call, or with the pattern the row is a slice of — so
				// its bound sends the row to the Go loops, which panic at it.
				for _, form := range []namedIndex{{"per-call", NewIndex(cols)}, {"pattern", patternIndex(cols, 0)}} {
					mustPanic(t, fmt.Sprintf("GatherDots (%s index) n=%d cols[%d]=%d", form.how, n, at, bad), func() {
						GatherDots(make([]T, n), x, form.idx, m, ld, off)
					})
					mustPanic(t, fmt.Sprintf("GatherAxpy (%s index) n=%d cols[%d]=%d", form.how, n, at, bad), func() {
						GatherAxpy(acc, make([]T, n), form.idx, m, ld, off)
					})
				}
			}
		}
		// The last row's window must end inside m: one column too many.
		cols := make([]int32, n)
		cols[n-1] = rows - 1
		idx := NewIndex(cols)
		mustPanic(t, "GatherDots window past the end", func() { GatherDots(make([]T, n), x, idx, m, ld, off+1) })
		mustPanic(t, "GatherAxpy window past the end", func() { GatherAxpy(acc, make([]T, n), idx, m, ld, off+1) })
		// Scores shorter than the row.
		mustPanic(t, "GatherDots short dst", func() { GatherDots(make([]T, n-1), x, idx, m, ld, off) })
		mustPanic(t, "GatherAxpy short vals", func() { GatherAxpy(acc, make([]T, n-1), idx, m, ld, off) })
		// The norms of a cosine row are gathered one element at a time.
		norms := backing[:rows:rows]
		for _, bad := range []int32{rows, -1, math.MaxInt32} {
			cols := make([]int32, n)
			cols[n/2] = bad
			mustPanic(t, fmt.Sprintf("CosineRow n=%d cols[%d]=%d", n, n/2, bad), func() {
				CosineRow(make([]T, n), NewIndex(cols), norms, 1, 1)
			})
		}
		mustPanic(t, "CosineRow short dst", func() { CosineRow(make([]T, n-1), idx, norms, 1, 1) })
	}
}

// TestGatherRowsBounds: a column index whose window leaves the operand must
// panic as it does in the Go loops, wherever in the row it sits, whatever
// path the rest of the row takes and however the index was come by; so must
// scores shorter than the row. The operand is the front of a larger array, so
// a kernel that read past it would not fault and would go unnoticed without
// this test. And there is no way round the scan: Index has no exported field
// to set, and the one Index a caller can write down without NewIndex is
// empty.
func TestGatherRowsBounds(t *testing.T) {
	t.Run("f32", testGatherBounds[float32])
	t.Run("f64", testGatherBounds[float64])
	typ := reflect.TypeOf(Index{})
	for f := 0; f < typ.NumField(); f++ {
		if typ.Field(f).IsExported() {
			t.Errorf("Index.%s is exported: an index could be built around the scan", typ.Field(f).Name)
		}
	}
	if (Index{}).Len() != 0 {
		t.Error("the zero Index is not empty")
	}
}

// FuzzGatherRows decodes a row from raw bytes — width, window, column
// indices, then float64 bit patterns taken as they come, so every NaN
// payload, subnormal and infinity is reachable — and checks both widths,
// primitive against Go loop against oracle.
func FuzzGatherRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 5, 0, 1, 2, 3, 4})
	// {w−1, off, n, ld slack, cols…}: a strip plus a register plus columns
	// over (w = 72) on an unaligned window, 8 + 3 edges; one register and an
	// overlapping last pass; a width only the Go loops take.
	for _, seed := range [][]byte{
		{31, 2, 9, 0, 0, 1, 1, 2, 6, 6, 6, 3},
		{71, 3, 11, 2, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3},
		{7, 1, 17, 1, 6, 5, 4, 3, 2, 1, 0, 6, 5, 4, 3, 2, 1, 0, 6, 5, 4},
		{30, 0, 24, 0, 3, 3, 3},
	} {
		for _, v := range specials {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
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
		w, off, n := 1+next()%80, next()%4, next()%70
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
		checkGatherRow(t, x64, vals64, cols, m64, rows, ld, off)
		x32, vals32, m32 := make([]float32, w), make([]float32, n), make([]float32, rows*ld)
		tensor.Cast(x32, x64)
		tensor.Cast(vals32, vals64)
		tensor.Cast(m32, m64)
		checkGatherRow(t, x32, vals32, cols, m32, rows, ld, off)
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
func benchGather[T tensor.Elem](b *testing.B, hub, dots bool, gather gatherFunc[T]) {
	const k = 32
	pat := benchPattern(hub)
	idx := pat.Index()
	rng := rand.New(rand.NewSource(2))
	h := randVals[T](rng, pat.Cols*k, false)
	out := make([]T, pat.Rows*k)
	scores := randVals[T](rng, pat.NNZ(), false)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := 0; i < pat.Rows; i++ {
			lo, hi := pat.RowPtr[i], pat.RowPtr[i+1]
			if dots {
				gather(scores[lo:hi], h[i*k:(i+1)*k], idx.Slice(lo, hi), h, k, 0)
			} else {
				gather(out[i*k:(i+1)*k], scores[lo:hi], idx.Slice(lo, hi), h, k, 0)
			}
		}
	}
	edges := float64(b.N) * float64(pat.NNZ())
	fb := float64(unsafe.Sizeof(h[0]))
	b.ReportMetric(b.Elapsed().Seconds()*1e9/edges, "ns/edge")
	b.ReportMetric(edges*(4+fb*k+fb)/b.Elapsed().Seconds()/1e9, "GB/s")
}

// gatherFunc is the signature GatherDots and GatherAxpy share; goLoop lifts a
// loop over bare column indices to it.
type gatherFunc[T tensor.Elem] func(a, b []T, cols Index, m []T, ld, off int)

func goLoop[T tensor.Elem](loop func(a, b []T, cols []int32, m []T, ld, off int)) gatherFunc[T] {
	return func(a, b []T, cols Index, m []T, ld, off int) { loop(a, b, cols.Cols(), m, ld, off) }
}

// benchShort times a row primitive on rows of exactly n edges, n = 1…7 — what
// gather.go's dotsMinEdges (and the absence of an axpy cut) is read off: 2^16
// rows at k = 32 with uniform endpoints, one after the other on one thread.
// The operand is 8 MB at float32 and the columns are uniform, so every
// gathered row is a miss of the private caches with nothing in a row this
// short to hide it behind; with ahead ≥ 1 the sweep issues PrefetchRows for
// row i+ahead before it works on row i, as the plan sweeps of internal/fuse
// do, and the difference between the two is what the hint buys.
func benchShort[T tensor.Elem](b *testing.B, name string, dots bool, ahead int, gather gatherFunc[T]) {
	const k, rows = 32, 1 << 16
	rng := rand.New(rand.NewSource(4))
	h := randVals[T](rng, rows*k, false)
	out := make([]T, rows*k)
	for n := 1; n < dotsPass; n++ {
		cols := make([]int32, rows*n)
		for q := range cols {
			cols[q] = int32(rng.Intn(rows))
		}
		idx := NewIndex(cols)
		row := func(i int) Index { return idx.Slice(int64(i*n), int64((i+1)*n)) }
		scores := randVals[T](rng, len(cols), false)
		b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i := 0; i < rows; i++ {
					if j := i + ahead; ahead > 0 && j < rows {
						PrefetchRows(row(j), h, k, 0, k)
					}
					if dots {
						gather(scores[i*n:(i+1)*n], h[i*k:(i+1)*k], row(i), h, k, 0)
					} else {
						gather(out[i*k:(i+1)*k], scores[i*n:(i+1)*n], row(i), h, k, 0)
					}
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*rows), "ns/row")
		})
	}
}

// BenchmarkGatherDots and BenchmarkGatherAxpy are the kernel-level record of
// the two primitives: each shape runs the exported primitive (the assembly
// where the CPU has it), as "go" the four-edges-per-pass Go loop under it
// and as "scalar" the one-edge loop that one replaced (EXPERIMENTS.md holds
// a run, next to the plan's MM line from internal/fuse).
func BenchmarkGatherDots(b *testing.B) {
	benchShort(b, "short-f32", true, 0, GatherDots[float32])
	benchShort(b, "short-f32-ahead", true, 1, GatherDots[float32])
	benchShort(b, "short-f32-go", true, 0, goLoop(gatherDotsGo[float32]))
	benchShort(b, "short-f64", true, 0, GatherDots[float64])
	benchShort(b, "short-f64-ahead", true, 1, GatherDots[float64])
	benchShort(b, "short-f64-go", true, 0, goLoop(gatherDotsGo[float64]))
	b.Run("hub-f32", func(b *testing.B) { benchGather(b, true, true, GatherDots[float32]) })
	b.Run("hub-f32-go", func(b *testing.B) { benchGather(b, true, true, goLoop(gatherDotsGo[float32])) })
	b.Run("hub-f32-scalar", func(b *testing.B) { benchGather(b, true, true, goLoop(refDots[float32])) })
	b.Run("flat-f64", func(b *testing.B) { benchGather(b, false, true, GatherDots[float64]) })
	b.Run("flat-f64-go", func(b *testing.B) { benchGather(b, false, true, goLoop(gatherDotsGo[float64])) })
	b.Run("flat-f64-scalar", func(b *testing.B) { benchGather(b, false, true, goLoop(refDots[float64])) })
}

func BenchmarkGatherAxpy(b *testing.B) {
	benchShort(b, "short-f32", false, 0, GatherAxpy[float32])
	benchShort(b, "short-f32-ahead", false, 1, GatherAxpy[float32])
	benchShort(b, "short-f32-go", false, 0, goLoop(gatherAxpyGo[float32]))
	benchShort(b, "short-f64", false, 0, GatherAxpy[float64])
	benchShort(b, "short-f64-ahead", false, 1, GatherAxpy[float64])
	benchShort(b, "short-f64-go", false, 0, goLoop(gatherAxpyGo[float64]))
	b.Run("hub-f32", func(b *testing.B) { benchGather(b, true, false, GatherAxpy[float32]) })
	b.Run("hub-f32-go", func(b *testing.B) { benchGather(b, true, false, goLoop(gatherAxpyGo[float32])) })
	b.Run("hub-f32-scalar", func(b *testing.B) { benchGather(b, true, false, goLoop(refAxpy[float32])) })
	b.Run("flat-f64", func(b *testing.B) { benchGather(b, false, false, GatherAxpy[float64]) })
	b.Run("flat-f64-go", func(b *testing.B) { benchGather(b, false, false, goLoop(gatherAxpyGo[float64])) })
	b.Run("flat-f64-scalar", func(b *testing.B) { benchGather(b, false, false, goLoop(refAxpy[float64])) })
}

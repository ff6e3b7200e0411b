package sparse

import (
	"unsafe"

	"agnn/internal/tensor"
)

// The two row primitives under every sparse sweep of the repository (DGL's
// g-SDDMM / g-SpMM pair, cut down to one pattern row) and under the dense
// projection: GatherDots samples, GatherAxpy aggregates. On an amd64 CPU
// with AVX2 a row runs in the assembly of gather_amd64.s; the Go loops below
// are the only path everywhere else, take what the assembly does not (the
// columns of an accumulator beyond its last whole ymm register, dot products
// over a width the transposes cannot step through, dot products of the few
// shortest rows) and are the oracle the tests hold the assembly to.
//
// The Go loops walk a row's column indices four edges per pass, so four
// gathered rows — four cache misses, four floating-point dependency chains —
// are in flight at once where a one-edge loop has one. The assembly maps
// lanes to output columns (GatherAxpy) or to edges (GatherDots). Either way
// only the grouping changes: every individual sum is still formed in its
// original order (t ascending inside a dot, q ascending inside an output
// element) from separately rounded products, so every result that is not a
// NaN is bitwise-identical to the one-edge loops (a NaN stays a NaN; its
// payload is the register allocator's to pick). Two edges per pass measured
// a third slower than four and eight no faster (EXPERIMENTS.md), so four it
// is for the Go loops.
//
// M is row-major with leading dimension ld; the gathered row j is the
// column window M[j*ld+off : j*ld+off+w], w the length of x resp. acc. The
// window is what lets CSR.MulDenseInto tile the feature dimension.
//
// The column indices arrive as an Index (index.go): scanned once per pattern,
// so that what a call checks before the assembly is one product against the
// operand's length, not the row. A caller holding a bare slice builds the
// Index on the spot, NewIndex(cols), which is that scan.

// The assembly kernels by element width (0: float32, 1: float64), set during
// package initialisation where the CPU has them (gather_amd64.go) and nil
// everywhere else. Sizes and strides are in bytes. An axpy kernel takes all
// n ≥ 1 edges over the first wb bytes of acc, wb a multiple of 32; a dots
// kernel takes all n ≥ dotsPass edges over a window of wb bytes, wb a multiple
// of 16, and its short twin the rows of 1 ≤ n < dotsPass edges.
type (
	axpyKernel func(acc unsafe.Pointer, wb int, vals unsafe.Pointer, cols *int32, n int, x unsafe.Pointer, ldb int)
	dotsKernel func(dst, x unsafe.Pointer, wb int, cols *int32, n int, y unsafe.Pointer, ldb int)
)

var (
	asmAxpy      [2]axpyKernel
	asmDots      [2]dotsKernel
	asmDotsShort [2]dotsKernel
	// asmPrefetch asks for the wb bytes at m + cols[q]·ldb + offb, q < n.
	asmPrefetch func(m unsafe.Pointer, cols *int32, n int, ldb, offb, wb int)
)

const (
	ymmBytes = 32 // one accumulator register of the axpy kernels
	dotsStep = 16 // bytes of every gathered row one transpose step consumes
	dotsPass = 8  // edges of one pass of the dots kernels
)

// dotsMinEdges is the shortest row the dots kernels take, by element width;
// shorter ones stay in the Go loops. A row under dotsPass edges is padded to a
// whole pass, so the kernel has to beat n Go dot products with eight of its
// own: BenchmarkGatherDots' short rows have it lose below these lengths
// (EXPERIMENTS.md "One row fetch per edge"). The axpy kernels win from the
// first edge on and have no such cut.
var dotsMinEdges = [2]int{5, 6}

// base is the address of a slice's first element, for the kernels.
func base[T any](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

// GatherDots computes dst[q] = Σ_t x[t]·Y[cols[q], off+t] for every q. dst
// must not overlap x or y.
func GatherDots[T tensor.Elem](dst, x []T, cols Index, y []T, ld, off int) {
	n := len(cols.cols)
	dst = dst[:n]
	size := int(unsafe.Sizeof(*new(T)))
	if kernel := asmDots[size/8]; kernel != nil && n >= dotsMinEdges[size/8] && len(x) > 0 && len(x)*size%dotsStep == 0 &&
		cols.windowsIn(len(y), ld, off, len(x)) {
		if n < dotsPass {
			kernel = asmDotsShort[size/8]
		}
		kernel(base(dst), base(x), len(x)*size, unsafe.SliceData(cols.cols), n, base(y[off:]), ld*size)
		return
	}
	gatherDotsGo(dst, x, cols.cols, y, ld, off)
}

// GatherAxpy accumulates acc[t] += vals[q]·X[cols[q], off+t], q ascending
// for every t. acc must not overlap x.
func GatherAxpy[T tensor.Elem](acc, vals []T, cols Index, x []T, ld, off int) {
	n := len(cols.cols)
	vals = vals[:n]
	size := int(unsafe.Sizeof(*new(T)))
	w := len(acc) &^ (ymmBytes/size - 1)
	if kernel := asmAxpy[size/8]; kernel != nil && n > 0 && w > 0 &&
		cols.windowsIn(len(x), ld, off, len(acc)) {
		kernel(base(acc), w*size, base(vals), unsafe.SliceData(cols.cols), n, base(x[off:]), ld*size)
		if w == len(acc) {
			return
		}
		acc, off = acc[w:], off+w
	}
	gatherAxpyGo(acc, vals, cols.cols, x, ld, off)
}

// prefetchCap is how many of a row's gathered windows PrefetchRows asks for.
// A row of that many edges or fewer is in flight as a whole before its sweep
// reaches it; a longer one is long enough for the kernels' own look-ahead
// (AXPY_AHEAD, DOTS_AHEAD) to cover the rest (EXPERIMENTS.md "The glue
// between the kernels").
const prefetchCap = 8

// PrefetchRows hints that the windows m[c*ld+off : c*ld+off+w] of the first
// few indices c are about to be gathered: a sweep issues it for a row some
// rows ahead of the one it is working on, so that the short rows — whose
// gathers are all cache misses with nothing in the row to hide them behind —
// find their operands on the way. A hint reads nothing and cannot fault,
// whatever the indices; where there is no such instruction it does nothing.
func PrefetchRows[T tensor.Elem](cols Index, m []T, ld, off, w int) {
	if n := min(len(cols.cols), prefetchCap); asmPrefetch != nil && n > 0 {
		size := int(unsafe.Sizeof(*new(T)))
		asmPrefetch(base(m), unsafe.SliceData(cols.cols), n, ld*size, off*size, w*size)
	}
}

// gatherDotsGo is GatherDots in Go, four edges per pass.
func gatherDotsGo[T tensor.Elem](dst, x []T, cols []int32, y []T, ld, off int) {
	dst = dst[:len(cols)]
	for len(cols) >= 4 {
		c, d := cols[:4], dst[:4]
		b0, b1, b2, b3 := int(c[0])*ld+off, int(c[1])*ld+off, int(c[2])*ld+off, int(c[3])*ld+off
		y0, y1, y2, y3 := y[b0:][:len(x)], y[b1:][:len(x)], y[b2:][:len(x)], y[b3:][:len(x)]
		var s0, s1, s2, s3 T
		for t, xv := range x {
			s0 += xv * y0[t]
			s1 += xv * y1[t]
			s2 += xv * y2[t]
			s3 += xv * y3[t]
		}
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		cols, dst = cols[4:], dst[4:]
	}
	dst = dst[:len(cols)] // restated for the compiler: dst[q] below needs no check
	for q, c := range cols {
		yr := y[int(c)*ld+off:][:len(x)]
		var s T
		for t, xv := range x {
			s += xv * yr[t]
		}
		dst[q] = s
	}
}

// gatherAxpyGo is GatherAxpy in Go, four edges per pass.
func gatherAxpyGo[T tensor.Elem](acc, vals []T, cols []int32, x []T, ld, off int) {
	vals = vals[:len(cols)]
	for len(cols) >= 4 {
		c, v := cols[:4], vals[:4]
		b0, b1, b2, b3 := int(c[0])*ld+off, int(c[1])*ld+off, int(c[2])*ld+off, int(c[3])*ld+off
		x0, x1, x2, x3 := x[b0:][:len(acc)], x[b1:][:len(acc)], x[b2:][:len(acc)], x[b3:][:len(acc)]
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		for t, a := range acc {
			a += v0 * x0[t]
			a += v1 * x1[t]
			a += v2 * x2[t]
			a += v3 * x3[t]
			acc[t] = a
		}
		cols, vals = cols[4:], vals[4:]
	}
	vals = vals[:len(cols)] // as above, for vals[q]
	for q, c := range cols {
		xr := x[int(c)*ld+off:][:len(acc)]
		vq := vals[q]
		for t := range acc {
			acc[t] += vq * xr[t]
		}
	}
}

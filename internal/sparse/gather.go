package sparse

import "agnn/internal/tensor"

// The two row primitives under every sparse sweep of the repository (DGL's
// g-SDDMM / g-SpMM pair, cut down to one pattern row): GatherDots samples,
// GatherAxpy aggregates. Both walk a row's column indices four edges per
// pass, so four gathered rows — four cache misses, four floating-point
// dependency chains — are in flight at once where a one-edge loop has one.
// Only the grouping of edges changes: every individual sum is still formed
// in its original order (t ascending inside a dot, q ascending inside an
// output element), so every result that is not a NaN is bitwise-identical
// to the one-edge loops they replace (a NaN stays a NaN; its payload is the
// register allocator's to pick). Two edges per pass measured a third slower
// than four and eight no faster (EXPERIMENTS.md), so four it is.
//
// M is row-major with leading dimension ld; the gathered row j is the
// column window M[j*ld+off : j*ld+off+w], w the length of x resp. acc. The
// window is what lets CSR.MulDenseInto tile the feature dimension.

// GatherDots computes dst[q] = Σ_t x[t]·Y[cols[q], off+t] for every q.
func GatherDots[T tensor.Elem](dst, x []T, cols []int32, y []T, ld, off int) {
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

// GatherAxpy accumulates acc[t] += vals[q]·X[cols[q], off+t], q ascending
// for every t. acc must not overlap x.
func GatherAxpy[T tensor.Elem](acc, vals []T, cols []int32, x []T, ld, off int) {
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

package sparse

import "unsafe"

// The assembly of gather_amd64.s, exprow_amd64.s and cosine_amd64.s. None of
// the kernels keeps a pointer.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func axpyF32(acc unsafe.Pointer, wb int, vals unsafe.Pointer, cols *int32, n int, x unsafe.Pointer, ldb int)

//go:noescape
func axpyF64(acc unsafe.Pointer, wb int, vals unsafe.Pointer, cols *int32, n int, x unsafe.Pointer, ldb int)

//go:noescape
func dotsF32(dst, x unsafe.Pointer, wb int, cols *int32, n int, y unsafe.Pointer, ldb int)

//go:noescape
func dotsF64(dst, x unsafe.Pointer, wb int, cols *int32, n int, y unsafe.Pointer, ldb int)

//go:noescape
func prefetchRows(m unsafe.Pointer, cols *int32, n int, ldb, offb, wb int)

//go:noescape
func expF32(dst, src unsafe.Pointer, n int, m float32)

//go:noescape
func expF64(dst, src unsafe.Pointer, n int, m float64) (done int)

//go:noescape
func cosineF32(dst unsafe.Pointer, cols *int32, n int, b unsafe.Pointer, a, beta float32)

// dotsShort is the dots kernel of a row of 1 ≤ n < dotsPass edges: the row is
// padded to one whole pass by repeating its last column, so the kernel
// recomputes that edge's product — to the same bits — in the lanes nobody
// reads, and the first n results are copied out. The padded row and its
// results live on this frame, which is why the kernels are called by name:
// through a func value the arrays would escape to the heap, one allocation
// per short row.
func dotsShort[T float32 | float64](dst, x unsafe.Pointer, wb int, cols *int32, n int, y unsafe.Pointer, ldb int) {
	var c [dotsPass]int32
	var d [dotsPass]T
	copy(c[:], unsafe.Slice(cols, n))
	for q := n; q < dotsPass; q++ {
		c[q] = c[n-1]
	}
	if unsafe.Sizeof(d[0]) == 4 {
		dotsF32(unsafe.Pointer(&d), x, wb, &c[0], dotsPass, y, ldb)
	} else {
		dotsF64(unsafe.Pointer(&d), x, wb, &c[0], dotsPass, y, ldb)
	}
	copy(unsafe.Slice((*T)(dst), n), d[:n])
}

// vectorISA reports whether the CPU implements AVX2 and the operating system
// saves the ymm registers across context switches, and whether it also
// implements FMA — with AVX, the condition under which math.Exp takes its
// FMA path.
func vectorISA() (avx2, fma bool) {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28
		fmaBit  = 1 << 12
		avx2Bit = 1 << 5 // CPUID.7.0:EBX
		ymmSave = 0b110  // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, _, c, _ := cpuid(1, 0)
	if c&osxsave == 0 || c&avx == 0 {
		return false, false
	}
	if xgetbv()&ymmSave != ymmSave {
		return false, false
	}
	_, b, _, _ := cpuid(7, 0)
	avx2 = b&avx2Bit != 0
	return avx2, avx2 && c&fmaBit != 0
}

// The row kernels are chosen once, here, from what the CPU reports.
func init() {
	avx2, fma := vectorISA()
	if fma {
		asmExp64 = expF64
	}
	if avx2 {
		asmAxpy = [2]axpyKernel{axpyF32, axpyF64}
		asmDots = [2]dotsKernel{dotsF32, dotsF64}
		asmDotsShort = [2]dotsKernel{dotsShort[float32], dotsShort[float64]}
		asmPrefetch = prefetchRows
		asmExp = expF32
		asmCosine = cosineF32
	}
}

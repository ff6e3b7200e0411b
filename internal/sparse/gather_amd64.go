package sparse

import "unsafe"

// The assembly of gather_amd64.s. None of the kernels keeps a pointer.

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

// hasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the ymm registers across context switches.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.7.0:EBX
		ymmSave = 0b110  // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xgetbv()&ymmSave != ymmSave {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// The row kernels are chosen once, here, from what the CPU reports.
func init() {
	if hasAVX2() {
		asmAxpy = [2]axpyKernel{axpyF32, axpyF64}
		asmDots = [2]dotsKernel{dotsF32, dotsF64}
	}
}

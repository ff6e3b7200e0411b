#include "textflag.h"

// AVX2 form of CosineRow's loop (cosine.go) at float32, eight lanes a pass:
// the eight norms b[cols[q]] come in by one gather, and every lane goes
// through the scalar loop's operations in its order — a·b[j], dst/that,
// β·that, each one rounded instruction (VMULPS, VDIVPS, VMULPS) — with the
// zero-norm guard as a compare and an and-not, which leaves the +0 the loop
// stores. The n%8 elements after the last whole pass take one more pass under
// a lane mask, as in exprow_amd64.s: masked-off lanes are neither gathered,
// read nor written. gather_amd64.go holds the declaration; the wrapper has
// checked the largest index against b's length before a pointer reaches this
// file.

// COSINE8 turns the eight dot products in Y0 and the eight norms in Y3 into
// the eight scores in Y0. Y15 a, Y14 β, Y13 zero; Y4 scratch. $0 is
// equal, ordered, quiet: a NaN denominator is not zero and stays a NaN.
#define COSINE8 \
	VMULPS  Y3, Y15, Y3;     \
	VDIVPS  Y3, Y0, Y0;      \
	VMULPS  Y0, Y14, Y0;     \
	VCMPPS  $0, Y13, Y3, Y4; \
	VANDNPS Y0, Y4, Y0

// func cosineF32(dst unsafe.Pointer, cols *int32, n int, b unsafe.Pointer, a, beta float32)
//
// DI/SI: the ends of the whole passes of dst/cols, CX minus their bytes
// (counts up to zero), BX the lanes of the partial pass, R9 its mask, R8 b.
TEXT ·cosineF32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ cols+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), R8
	VBROADCASTSS a+32(FP), Y15
	VBROADCASTSS beta+36(FP), Y14
	VXORPS Y13, Y13, Y13
	MOVQ CX, BX
	ANDQ $7, BX
	SUBQ BX, CX
	SHLQ $2, CX
	ADDQ CX, SI
	ADDQ CX, DI
	NEGQ CX
	JZ   partial

pass:
	VMOVDQU    (SI)(CX*1), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERDPS Y2, (R8)(Y1*4), Y3
	VMOVUPS    (DI)(CX*1), Y0
	COSINE8
	VMOVUPS    Y0, (DI)(CX*1)
	ADDQ       $32, CX
	JNZ        pass

partial:
	TESTQ BX, BX
	JZ    done
	LEAQ  ·lanemask+32(SB), R9
	SHLQ  $2, BX
	SUBQ  BX, R9
	VMOVDQU    (R9), Y5
	VPMASKMOVD (SI), Y5, Y1
	VMOVDQU    Y5, Y2
	VXORPS     Y3, Y3, Y3
	VGATHERDPS Y2, (R8)(Y1*4), Y3
	VMASKMOVPS (DI), Y5, Y0
	COSINE8
	VMASKMOVPS Y0, Y5, (DI)

done:
	VZEROUPPER
	RET

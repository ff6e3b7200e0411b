#include "textflag.h"

// AVX2 form of ExpRow's loop (exprow.go): exp32 on eight float32 lanes a
// pass. Every lane goes through exp32's operations in exp32's order — the
// float64 x·log2e + 0.5, floor, back to float32; every float32 product a
// VMULPS followed by a VSUBPS or VADDPS, never an FMA; 2^fn from a truncating
// convert, + 127, shift into the exponent field; the two range tests made on
// x and applied last, as blends — so a lane's result has the bits exp32
// returns. The n%8 elements after the last whole pass take one more pass
// under a lane mask: masked-off lanes are neither read nor written, so the
// row may end at the end of its buffer and dst may be src. gather_amd64.go
// holds the declaration.

// exp32's constants, as the Go compiler rounds them.
DATA expc<>+0(SB)/8, $0x3ff71547652b82fe // log2e (float64)
DATA expc<>+8(SB)/8, $0x3fe0000000000000 // 0.5 (float64)
DATA expc<>+16(SB)/4, $0x3f318000        // c1
DATA expc<>+20(SB)/4, $0xb95e8083        // c2
DATA expc<>+24(SB)/4, $0x39506967        // p0
DATA expc<>+28(SB)/4, $0x3ab743ce        // p1
DATA expc<>+32(SB)/4, $0x3c088908        // p2
DATA expc<>+36(SB)/4, $0x3d2aa9c1        // p3
DATA expc<>+40(SB)/4, $0x3e2aaaaa        // p4
DATA expc<>+44(SB)/4, $0x3f000000        // p5
DATA expc<>+48(SB)/4, $0x3f800000        // 1
DATA expc<>+52(SB)/4, $127               // exponent bias (int32)
DATA expc<>+56(SB)/4, $0x42b17217        // 88.72283: above it +Inf
DATA expc<>+60(SB)/4, $0xc2aeac50        // -87.33655: below it 0
DATA expc<>+64(SB)/4, $0x7f800000        // +Inf
GLOBL expc<>(SB), RODATA|NOPTR, $68

// Eight set lanes, then eight clear ones: the 32 bytes that start 4·r bytes
// before the middle are the mask of a partial pass of r lanes. (Shared with
// cosine_amd64.s, hence not file-local.)
DATA ·lanemask+0(SB)/8, $0xffffffffffffffff
DATA ·lanemask+8(SB)/8, $0xffffffffffffffff
DATA ·lanemask+16(SB)/8, $0xffffffffffffffff
DATA ·lanemask+24(SB)/8, $0xffffffffffffffff
DATA ·lanemask+32(SB)/8, $0
DATA ·lanemask+40(SB)/8, $0
DATA ·lanemask+48(SB)/8, $0
DATA ·lanemask+56(SB)/8, $0
GLOBL ·lanemask(SB), RODATA|NOPTR, $64

// EXP8 turns the eight scores in Y0 into Y4 = exp32(Y0 − m). Registers: Y15
// m, Y14 log2e, Y13 0.5, Y12 c1, Y11 c2, Y10–Y6 p0–p4; the other constants
// are broadcast where they are used. Y0 x, Y1 fn, Y2 r, Y3 z, Y4 p, Y5
// scratch. Line by line:
//
//	x = src − m
//	fn = float32(floor(float64(x)·log2e + 0.5)), four lanes a register,
//	     rounded toward −∞ ($9)
//	r = x − fn·c1; r −= fn·c2; z = r·r
//	p = (((((p0·r + p1)·r + p2)·r + p3)·r + p4)·r + p5)·z + r + 1
//	p · 2^fn, the power of two built in the exponent field
//	x > 88.72283 → +Inf ($0x1E: greater-than, ordered, quiet),
//	x < −87.33655 → 0 ($0x11: less-than); a NaN x fails both tests
#define EXP8 \
	VSUBPS       Y15, Y0, Y0;           \
	VCVTPS2PD    X0, Y1;                \
	VEXTRACTF128 $1, Y0, X2;            \
	VCVTPS2PD    X2, Y2;                \
	VMULPD       Y14, Y1, Y1;           \
	VMULPD       Y14, Y2, Y2;           \
	VADDPD       Y13, Y1, Y1;           \
	VADDPD       Y13, Y2, Y2;           \
	VROUNDPD     $9, Y1, Y1;            \
	VROUNDPD     $9, Y2, Y2;            \
	VCVTPD2PSY   Y1, X1;                \
	VCVTPD2PSY   Y2, X2;                \
	VINSERTF128  $1, X2, Y1, Y1;        \
	VMULPS       Y12, Y1, Y2;           \
	VSUBPS       Y2, Y0, Y2;            \
	VMULPS       Y11, Y1, Y3;           \
	VSUBPS       Y3, Y2, Y2;            \
	VMULPS       Y2, Y2, Y3;            \
	VMULPS       Y10, Y2, Y4;           \
	VADDPS       Y9, Y4, Y4;            \
	VMULPS       Y2, Y4, Y4;            \
	VADDPS       Y8, Y4, Y4;            \
	VMULPS       Y2, Y4, Y4;            \
	VADDPS       Y7, Y4, Y4;            \
	VMULPS       Y2, Y4, Y4;            \
	VADDPS       Y6, Y4, Y4;            \
	VMULPS       Y2, Y4, Y4;            \
	VBROADCASTSS expc<>+44(SB), Y5;     \
	VADDPS       Y5, Y4, Y4;            \
	VMULPS       Y3, Y4, Y4;            \
	VADDPS       Y2, Y4, Y4;            \
	VBROADCASTSS expc<>+48(SB), Y5;     \
	VADDPS       Y5, Y4, Y4;            \
	VCVTTPS2DQ   Y1, Y1;                \
	VPBROADCASTD expc<>+52(SB), Y5;     \
	VPADDD       Y5, Y1, Y1;            \
	VPSLLD       $23, Y1, Y1;           \
	VMULPS       Y1, Y4, Y4;            \
	VBROADCASTSS expc<>+56(SB), Y5;     \
	VCMPPS       $0x1E, Y5, Y0, Y5;     \
	VBROADCASTSS expc<>+64(SB), Y3;     \
	VBLENDVPS    Y5, Y3, Y4, Y4;        \
	VBROADCASTSS expc<>+60(SB), Y5;     \
	VCMPPS       $0x11, Y5, Y0, Y5;     \
	VANDNPS      Y4, Y5, Y4

// func expF32(dst, src unsafe.Pointer, n int, m float32)
//
// SI/DI: the ends of the whole passes of src/dst, CX minus their bytes
// (counts up to zero), BX the lanes of the partial pass, R8 its mask.
TEXT ·expF32(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS m+24(FP), Y15
	VBROADCASTSD expc<>+0(SB), Y14
	VBROADCASTSD expc<>+8(SB), Y13
	VBROADCASTSS expc<>+16(SB), Y12
	VBROADCASTSS expc<>+20(SB), Y11
	VBROADCASTSS expc<>+24(SB), Y10
	VBROADCASTSS expc<>+28(SB), Y9
	VBROADCASTSS expc<>+32(SB), Y8
	VBROADCASTSS expc<>+36(SB), Y7
	VBROADCASTSS expc<>+40(SB), Y6
	MOVQ CX, BX
	ANDQ $7, BX
	SUBQ BX, CX
	SHLQ $2, CX
	ADDQ CX, SI
	ADDQ CX, DI
	NEGQ CX
	JZ   partial

pass:
	VMOVUPS (SI)(CX*1), Y0
	EXP8
	VMOVUPS Y4, (DI)(CX*1)
	ADDQ    $32, CX
	JNZ     pass

partial:
	TESTQ BX, BX
	JZ    done
	LEAQ  ·lanemask+32(SB), R8
	SHLQ  $2, BX
	SUBQ  BX, R8
	VMOVDQU    (R8), Y5
	VMASKMOVPS (SI), Y5, Y0
	EXP8
	VMOVDQU    (R8), Y5
	VMASKMOVPS Y4, Y5, (DI)

done:
	VZEROUPPER
	RET

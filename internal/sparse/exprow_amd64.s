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

// ---- float64: math.Exp on four lanes ----------------------------------
//
// AVX2+FMA form of ExpRow's float64 loop: math.Exp on four lanes a pass,
// through the operations of the FMA path of Go's own math.Exp for amd64
// ($GOROOT/src/math/exp_amd64.s, after Shibata's SLEEF) in their order —
// e = round(x·log2e) by the same round-to-nearest convert; x − e·ln2U and
// − e·ln2L, each one fused multiply-add; ×1/16; the Horner chain of seven
// FMAs; four (x+2)·x squarings, the last fused with the closing + 1; and the
// product with 2^e built in the exponent field. So a lane's result has the
// bits math.Exp returns wherever math.Exp takes that path: where e + 1023
// lies in [1, 2046]. Every other lane (±Inf, NaN, the underflow into
// subnormals and zero, math.Exp's overflow band from 709.44 up) is math.Exp's
// special case: a pass with one such lane is not written, and its index is
// returned for ExpRow to take the pass through math.Exp itself. The n%4
// elements after the last whole pass take one more pass under a lane mask,
// as expF32's do.

// math.Exp's constants, parsed from the same literals by the same assembler.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// Four-lane vectors (memory operands of the chain's tail) …
DATA exp64c<>+0(SB)/8, $1.6666666666666666667e-1
DATA exp64c<>+8(SB)/8, $1.6666666666666666667e-1
DATA exp64c<>+16(SB)/8, $1.6666666666666666667e-1
DATA exp64c<>+24(SB)/8, $1.6666666666666666667e-1
DATA exp64c<>+32(SB)/8, $0.5
DATA exp64c<>+40(SB)/8, $0.5
DATA exp64c<>+48(SB)/8, $0.5
DATA exp64c<>+56(SB)/8, $0.5
DATA exp64c<>+64(SB)/8, $1.0
DATA exp64c<>+72(SB)/8, $1.0
DATA exp64c<>+80(SB)/8, $1.0
DATA exp64c<>+88(SB)/8, $1.0
DATA exp64c<>+96(SB)/8, $2.0
DATA exp64c<>+104(SB)/8, $2.0
DATA exp64c<>+112(SB)/8, $2.0
DATA exp64c<>+120(SB)/8, $2.0
// … four int32 lanes: the exponent bias, zero, the largest biased exponent
// of a finite power of two …
DATA exp64c<>+128(SB)/8, $0x000003ff000003ff
DATA exp64c<>+136(SB)/8, $0x000003ff000003ff
DATA exp64c<>+144(SB)/8, $0
DATA exp64c<>+152(SB)/8, $0
DATA exp64c<>+160(SB)/8, $0x000007fe000007fe
DATA exp64c<>+168(SB)/8, $0x000007fe000007fe
// … and the scalars broadcast into registers.
DATA exp64c<>+176(SB)/8, $LOG2E
DATA exp64c<>+184(SB)/8, $LN2U
DATA exp64c<>+192(SB)/8, $LN2L
DATA exp64c<>+200(SB)/8, $0.0625
DATA exp64c<>+208(SB)/8, $2.4801587301587301587e-5
DATA exp64c<>+216(SB)/8, $1.9841269841269841270e-4
DATA exp64c<>+224(SB)/8, $1.3888888888888888889e-3
DATA exp64c<>+232(SB)/8, $8.3333333333333333333e-3
DATA exp64c<>+240(SB)/8, $4.1666666666666666667e-2
GLOBL exp64c<>(SB), RODATA|NOPTR, $248

// EXP4 turns the four scores in Y0 into Y0 = math.Exp(Y0 − m), and leaves in
// AX one bit per lane that took math.Exp's ordinary path. Registers: Y15 m,
// Y14 log2e, Y13 ln2U, Y12 ln2L, Y11 1/16, Y10–Y6 the chain's first five
// coefficients; Y1 scratch, X2 e and then its biased form, X3 and X4 the
// range tests. Line by line:
//
//	x = src − m
//	e = int32(x·log2e), rounded to nearest; x = x − e·ln2U − e·ln2L (fused)
//	x = x·(1/16)
//	p = ((((((c8·x + c7)·x + c6)·x + c5)·x + c4)·x + c3)·x + 0.5)·x + 1 (fused)
//	x = x·p; three times x = x·(x+2); x = x·(x+2) + 1 (fused)
//	x = x·2^e, with e + 1023 put in the exponent field
//	AX: 0 < e + 1023 < 2047, lane by lane
#define EXP4 \
	VSUBPD       Y15, Y0, Y0;             \
	VMULPD       Y14, Y0, Y1;             \
	VCVTPD2DQY   Y1, X2;                  \
	VCVTDQ2PD    X2, Y1;                  \
	VFNMADD231PD Y13, Y1, Y0;             \
	VFNMADD231PD Y12, Y1, Y0;             \
	VMULPD       Y11, Y0, Y0;             \
	VMOVAPD      Y10, Y1;                 \
	VFMADD213PD  Y9, Y0, Y1;              \
	VFMADD213PD  Y8, Y0, Y1;              \
	VFMADD213PD  Y7, Y0, Y1;              \
	VFMADD213PD  Y6, Y0, Y1;              \
	VFMADD213PD  exp64c<>+0(SB), Y0, Y1;  \
	VFMADD213PD  exp64c<>+32(SB), Y0, Y1; \
	VFMADD213PD  exp64c<>+64(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0;              \
	VADDPD       exp64c<>+96(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0;              \
	VADDPD       exp64c<>+96(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0;              \
	VADDPD       exp64c<>+96(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0;              \
	VADDPD       exp64c<>+96(SB), Y0, Y1; \
	VFMADD213PD  exp64c<>+64(SB), Y1, Y0; \
	VPADDD       exp64c<>+128(SB), X2, X2; \
	VPMOVZXDQ    X2, Y1;                  \
	VPSLLQ       $52, Y1, Y1;             \
	VMULPD       Y1, Y0, Y0;              \
	VPCMPGTD     exp64c<>+144(SB), X2, X3; \
	VPCMPGTD     exp64c<>+160(SB), X2, X4; \
	VPANDN       X3, X4, X3;              \
	VMOVMSKPS    X3, AX

// func expF64(dst, src unsafe.Pointer, n int, m float64) (done int)
//
// Returns n, or the index of the first element of the first pass with a
// lane math.Exp takes a special case on; from that pass on nothing is
// written. SI/DI: the ends of the whole passes of src/dst, CX minus their
// bytes (counts up to zero), DX their elements, BX the lanes of the partial
// pass, R8 and then Y5 its mask.
TEXT ·expF64(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD m+24(FP), Y15
	VBROADCASTSD exp64c<>+176(SB), Y14
	VBROADCASTSD exp64c<>+184(SB), Y13
	VBROADCASTSD exp64c<>+192(SB), Y12
	VBROADCASTSD exp64c<>+200(SB), Y11
	VBROADCASTSD exp64c<>+208(SB), Y10
	VBROADCASTSD exp64c<>+216(SB), Y9
	VBROADCASTSD exp64c<>+224(SB), Y8
	VBROADCASTSD exp64c<>+232(SB), Y7
	VBROADCASTSD exp64c<>+240(SB), Y6
	MOVQ CX, BX
	ANDQ $3, BX
	SUBQ BX, CX
	MOVQ CX, DX
	SHLQ $3, CX
	ADDQ CX, SI
	ADDQ CX, DI
	NEGQ CX
	JZ   partial64

pass64:
	VMOVUPD (SI)(CX*1), Y0
	EXP4
	CMPL    AX, $15
	JNE     special64
	VMOVUPD Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JNZ     pass64

partial64:
	TESTQ BX, BX
	JZ    done64
	LEAQ  ·lanemask+32(SB), R8
	SHLQ  $3, BX
	SUBQ  BX, R8
	VMOVDQU    (R8), Y5
	VMASKMOVPD (SI), Y5, Y0
	EXP4
	VMOVMSKPD  Y5, BX
	NOTL       AX
	TESTL      BX, AX
	JNZ        special64
	VMASKMOVPD Y0, Y5, (DI)

done64:
	MOVQ n+16(FP), AX
	MOVQ AX, done+32(FP)
	VZEROUPPER
	RET

special64:
	SARQ $3, CX
	ADDQ DX, CX
	MOVQ CX, done+32(FP)
	VZEROUPPER
	RET

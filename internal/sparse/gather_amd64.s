#include "textflag.h"

// AVX2 forms of the two row loops of gather.go, at float32 and float64.
// ymm registers only, and every product is a VMUL followed by a VADD — never
// an FMA, which rounds once where the Go loops round twice. The lane
// mappings keep every individual sum in the order the Go loops form it, so
// the results agree bit for bit (docs/ARCHITECTURE.md §3). gather_amd64.go
// holds the declarations; the Go wrapper in gather.go has range-checked
// every gathered window before a pointer reaches this file.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32): the low half of XCR0.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func prefetchRows(m unsafe.Pointer, cols *int32, n int, ldb, offb, wb int)
//
// PREFETCHT0 over the n ≥ 1 windows of wb bytes at m + cols[q]·ldb + offb:
// every 64th byte from the first one on, then the last. A prefetch of an
// address the process does not own does nothing, so no index can make this
// fault and none is checked.
TEXT ·prefetchRows(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), DI
	MOVQ cols+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ ldb+24(FP), R9
	MOVQ wb+40(FP), R11
	ADDQ offb+32(FP), DI

prefrow:
	MOVLQSX (SI), AX
	IMULQ   R9, AX
	ADDQ    DI, AX
	LEAQ    -1(AX)(R11*1), DX

prefline:
	PREFETCHT0 (AX)
	ADDQ       $64, AX
	CMPQ       AX, DX
	JLS        prefline
	PREFETCHT0 (DX)
	ADDQ       $4, SI
	DECQ       CX
	JNZ        prefrow
	RET

// ---- GatherAxpy: lane = output column --------------------------------
//
// A strip of the accumulator (four ymm = 128 bytes, then single ymm = 32
// bytes for what is left) stays in registers across all edges of the row:
// per edge one broadcast value, four multiplies against the gathered row,
// four adds. Column t of the strip therefore receives its contributions in
// q order, exactly as acc[t] += vals[q]·X[cols[q], t] does. While an edge is
// being added, the row AXPY_AHEAD edges further on is prefetched.
//
// Registers: DI strip of acc, CX bytes of acc left, R8 x + column offset of
// the strip, R9 row stride in bytes, BX edge count, R12/R13 vals/cols of the
// row, SI/DX cursors into them, AX edges left in the current loop, R10/R11
// row byte offsets. Y0–Y3 the strip, Y4 the broadcast value, Y5–Y8 products.

#define AXPY_AHEAD 8

// AXPY_EDGE4 adds edge (value Y4, row byte offset R10) into Y0–Y3.
#define AXPY_EDGE4(MUL, ADD) \
	MUL (R8)(R10*1), Y4, Y5;   \
	MUL 32(R8)(R10*1), Y4, Y6; \
	MUL 64(R8)(R10*1), Y4, Y7; \
	MUL 96(R8)(R10*1), Y4, Y8; \
	ADD Y5, Y0, Y0;            \
	ADD Y6, Y1, Y1;            \
	ADD Y7, Y2, Y2;            \
	ADD Y8, Y3, Y3

// AXPY_ROW is the body both widths share; VSZ is the element size.
#define AXPY_ROW(BCAST, MUL, ADD, VSZ) \
strip4:                                \
	CMPQ CX, $128;                     \
	JLT  strip1;                       \
	VMOVUPS (DI), Y0;                  \
	VMOVUPS 32(DI), Y1;                \
	VMOVUPS 64(DI), Y2;                \
	VMOVUPS 96(DI), Y3;                \
	MOVQ R12, SI;                      \
	MOVQ R13, DX;                      \
	MOVQ BX, AX;                       \
	SUBQ $AXPY_AHEAD, AX;              \
	JLE  short4;                       \
ahead4:                                \
	MOVLQSX (DX), R10;                 \
	MOVLQSX (4*AXPY_AHEAD)(DX), R11;   \
	IMULQ R9, R10;                     \
	IMULQ R9, R11;                     \
	BCAST (SI), Y4;                    \
	PREFETCHT0 (R8)(R11*1);            \
	PREFETCHT0 64(R8)(R11*1);          \
	AXPY_EDGE4(MUL, ADD);              \
	ADDQ $4, DX;                       \
	ADDQ $VSZ, SI;                     \
	DECQ AX;                           \
	JNZ  ahead4;                       \
	MOVQ $AXPY_AHEAD, AX;              \
	JMP  last4;                        \
short4:                                \
	MOVQ BX, AX;                       \
last4:                                 \
	MOVLQSX (DX), R10;                 \
	IMULQ R9, R10;                     \
	BCAST (SI), Y4;                    \
	AXPY_EDGE4(MUL, ADD);              \
	ADDQ $4, DX;                       \
	ADDQ $VSZ, SI;                     \
	DECQ AX;                           \
	JNZ  last4;                        \
	VMOVUPS Y0, (DI);                  \
	VMOVUPS Y1, 32(DI);                \
	VMOVUPS Y2, 64(DI);                \
	VMOVUPS Y3, 96(DI);                \
	ADDQ $128, DI;                     \
	ADDQ $128, R8;                     \
	SUBQ $128, CX;                     \
	JMP  strip4;                       \
strip1:                                \
	CMPQ CX, $32;                      \
	JLT  done;                         \
	VMOVUPS (DI), Y0;                  \
	MOVQ R12, SI;                      \
	MOVQ R13, DX;                      \
	MOVQ BX, AX;                       \
edge1:                                 \
	MOVLQSX (DX), R10;                 \
	IMULQ R9, R10;                     \
	BCAST (SI), Y4;                    \
	MUL (R8)(R10*1), Y4, Y5;           \
	ADD Y5, Y0, Y0;                    \
	ADDQ $4, DX;                       \
	ADDQ $VSZ, SI;                     \
	DECQ AX;                           \
	JNZ  edge1;                        \
	VMOVUPS Y0, (DI);                  \
	ADDQ $32, DI;                      \
	ADDQ $32, R8;                      \
	SUBQ $32, CX;                      \
	JMP  strip1;                       \
done:                                  \
	VZEROUPPER

// func axpyF32(acc unsafe.Pointer, wb int, vals unsafe.Pointer, cols *int32, n int, x unsafe.Pointer, ldb int)
TEXT ·axpyF32(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ wb+8(FP), CX
	MOVQ vals+16(FP), R12
	MOVQ cols+24(FP), R13
	MOVQ n+32(FP), BX
	MOVQ x+40(FP), R8
	MOVQ ldb+48(FP), R9
	AXPY_ROW(VBROADCASTSS, VMULPS, VADDPS, 4)
	RET

// func axpyF64(acc unsafe.Pointer, wb int, vals unsafe.Pointer, cols *int32, n int, x unsafe.Pointer, ldb int)
TEXT ·axpyF64(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ wb+8(FP), CX
	MOVQ vals+16(FP), R12
	MOVQ cols+24(FP), R13
	MOVQ n+32(FP), BX
	MOVQ x+40(FP), R8
	MOVQ ldb+48(FP), R9
	AXPY_ROW(VBROADCASTSD, VMULPD, VADDPD, 8)
	RET

// ---- GatherDots: lane = edge -----------------------------------------
//
// Eight edges per pass, n ≥ 8 edges in all. The eight gathered rows are read
// 16 bytes at a time into the two halves of ymm registers and transposed
// inside the halves, so that one register holds column t of all the edges of
// a group; it is multiplied by the broadcast x[t] and added to the group's
// accumulator. Lane e thus sums x[t]·Y[cols[e], t] for t ascending from +0,
// as the Go loop does. At float32 a group is eight edges (a 4×4 transpose
// per half, four columns a step), at float64 four edges (a 2×2 transpose per
// half, two columns a step) and a pass runs two groups side by side.
//
// Registers: DI dst, DX cols, BX passes left, AX row stride in bytes, SI end
// of x, R8–R15 ends of the eight gathered windows, CX minus the bytes left
// in the window (counts up to zero). On the frame: ystart / yend, the two
// ends of the window of row 0; negw, minus the window's bytes; tail, n%8;
// ahead, the first column index whose row has not been prefetched; colsend.

// DOTS_ROWS points R8–R15 at the window ends of the next eight rows.
#define DOTS_ROW(I, R) \
	MOVLQSX (4*I)(DX), R; \
	IMULQ AX, R;          \
	ADDQ yend-8(SP), R

#define DOTS_ROWS \
	DOTS_ROW(0, R8);  \
	DOTS_ROW(1, R9);  \
	DOTS_ROW(2, R10); \
	DOTS_ROW(3, R11); \
	DOTS_ROW(4, R12); \
	DOTS_ROW(5, R13); \
	DOTS_ROW(6, R14); \
	DOTS_ROW(7, R15)

// DOTS_TOUCH runs at the top of a pass, while R8–R11 are free: it prefetches
// the windows of the rows not yet asked for, up to DOTS_AHEAD edges beyond
// this pass or the end of the row. The first pass therefore asks for its own
// rows and the next DOTS_AHEAD at once — a short row is in flight as a whole
// before the first product — and every later pass for eight more.
#define DOTS_AHEAD 32

#define DOTS_TOUCH(TOUCH, LINE, ROWS) \
	MOVQ ahead-40(SP), R8;              \
	LEAQ (4*(DOTS_AHEAD+8))(DX), R9;    \
	CMPQ R9, colsend-48(SP);            \
	CMOVQGT colsend-48(SP), R9;         \
	CMPQ R8, R9;                        \
	JGE  ROWS;                          \
TOUCH:                                  \
	MOVLQSX (R8), R10;                  \
	IMULQ AX, R10;                      \
	ADDQ ystart-24(SP), R10;            \
	MOVQ negw-16(SP), R11;              \
LINE:                                   \
	PREFETCHT0 (R10);                   \
	ADDQ $64, R10;                      \
	ADDQ $64, R11;                      \
	JLT  LINE;                          \
	ADDQ $4, R8;                        \
	CMPQ R8, R9;                        \
	JLT  TOUCH;                         \
	MOVQ R8, ahead-40(SP);              \
ROWS:

// DOTS_TAIL runs after the whole passes. The n%8 edges left over are taken
// by one more pass over the last eight edges of the row: it recomputes the
// 8 − n%8 before them, to the same bits, and needs no partial store.
#define DOTS_TAIL(PASS, DONE, SZ) \
	MOVQ tail-32(SP), CX;  \
	TESTQ CX, CX;          \
	JZ DONE;               \
	MOVQ $0, tail-32(SP);  \
	SUBQ $8, CX;           \
	LEAQ (DX)(CX*4), DX;   \
	LEAQ (DI)(CX*SZ), DI;  \
	MOVQ $1, BX;           \
	JMP PASS

// DOTS_TERM adds x[t]·(column register C) to accumulator ACC, x[t] already
// broadcast into Y8; C is overwritten with the product.
#define DOTS_TERM(MUL, ADD, C, ACC) \
	MUL C, Y8, C; \
	ADD C, ACC, ACC

// func dotsF32(dst, x unsafe.Pointer, wb int, cols *int32, n int, y unsafe.Pointer, ldb int)
TEXT ·dotsF32(SB), NOSPLIT, $48-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ wb+16(FP), CX
	MOVQ cols+24(FP), DX
	MOVQ n+32(FP), BX
	MOVQ y+40(FP), R8
	MOVQ ldb+48(FP), AX
	MOVQ R8, ystart-24(SP)
	ADDQ CX, SI
	ADDQ CX, R8
	NEGQ CX
	MOVQ R8, yend-8(SP)
	MOVQ CX, negw-16(SP)
	MOVQ DX, ahead-40(SP)
	LEAQ (DX)(BX*4), CX
	MOVQ CX, colsend-48(SP)
	MOVQ BX, CX
	ANDQ $7, CX
	MOVQ CX, tail-32(SP)
	SHRQ $3, BX

pass32:
	DOTS_TOUCH(touch32, line32, rows32)
	DOTS_ROWS
	MOVQ   negw-16(SP), CX
	VXORPS Y15, Y15, Y15

step32:
	// Y0–Y3 = rows 0–3 in the low halves, rows 4–7 in the high halves.
	VMOVUPS     (R8)(CX*1), X0
	VMOVUPS     (R9)(CX*1), X1
	VMOVUPS     (R10)(CX*1), X2
	VMOVUPS     (R11)(CX*1), X3
	VINSERTF128 $1, (R12)(CX*1), Y0, Y0
	VINSERTF128 $1, (R13)(CX*1), Y1, Y1
	VINSERTF128 $1, (R14)(CX*1), Y2, Y2
	VINSERTF128 $1, (R15)(CX*1), Y3, Y3

	// 4×4 transpose inside each half: Y0–Y3 = columns t … t+3, lane = edge.
	VUNPCKLPS Y1, Y0, Y4
	VUNPCKHPS Y1, Y0, Y5
	VUNPCKLPS Y3, Y2, Y6
	VUNPCKHPS Y3, Y2, Y7
	VSHUFPS   $0x44, Y6, Y4, Y0
	VSHUFPS   $0xEE, Y6, Y4, Y1
	VSHUFPS   $0x44, Y7, Y5, Y2
	VSHUFPS   $0xEE, Y7, Y5, Y3
	VBROADCASTSS (SI)(CX*1), Y8
	DOTS_TERM(VMULPS, VADDPS, Y0, Y15)
	VBROADCASTSS 4(SI)(CX*1), Y8
	DOTS_TERM(VMULPS, VADDPS, Y1, Y15)
	VBROADCASTSS 8(SI)(CX*1), Y8
	DOTS_TERM(VMULPS, VADDPS, Y2, Y15)
	VBROADCASTSS 12(SI)(CX*1), Y8
	DOTS_TERM(VMULPS, VADDPS, Y3, Y15)
	ADDQ $16, CX
	JNZ  step32

	VMOVUPS Y15, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    BX
	JNZ     pass32
	DOTS_TAIL(pass32, done32, 4)
done32:
	VZEROUPPER
	RET

// func dotsF64(dst, x unsafe.Pointer, wb int, cols *int32, n int, y unsafe.Pointer, ldb int)
TEXT ·dotsF64(SB), NOSPLIT, $48-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ wb+16(FP), CX
	MOVQ cols+24(FP), DX
	MOVQ n+32(FP), BX
	MOVQ y+40(FP), R8
	MOVQ ldb+48(FP), AX
	MOVQ R8, ystart-24(SP)
	ADDQ CX, SI
	ADDQ CX, R8
	NEGQ CX
	MOVQ R8, yend-8(SP)
	MOVQ CX, negw-16(SP)
	MOVQ DX, ahead-40(SP)
	LEAQ (DX)(BX*4), CX
	MOVQ CX, colsend-48(SP)
	MOVQ BX, CX
	ANDQ $7, CX
	MOVQ CX, tail-32(SP)
	SHRQ $3, BX

pass64:
	DOTS_TOUCH(touch64, line64, rows64)
	DOTS_ROWS
	MOVQ   negw-16(SP), CX
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15

step64:
	// Group one: rows 0, 1 in the low halves of Y0, Y1, rows 2, 3 in the
	// high halves; unpacking gives columns t and t+1 with lane = edge.
	VMOVUPD     (R8)(CX*1), X0
	VMOVUPD     (R9)(CX*1), X1
	VINSERTF128 $1, (R10)(CX*1), Y0, Y0
	VINSERTF128 $1, (R11)(CX*1), Y1, Y1
	VUNPCKLPD   Y1, Y0, Y2
	VUNPCKHPD   Y1, Y0, Y3

	// Group two: rows 4–7.
	VMOVUPD     (R12)(CX*1), X4
	VMOVUPD     (R13)(CX*1), X5
	VINSERTF128 $1, (R14)(CX*1), Y4, Y4
	VINSERTF128 $1, (R15)(CX*1), Y5, Y5
	VUNPCKLPD   Y5, Y4, Y6
	VUNPCKHPD   Y5, Y4, Y7
	VBROADCASTSD (SI)(CX*1), Y8
	DOTS_TERM(VMULPD, VADDPD, Y2, Y14)
	DOTS_TERM(VMULPD, VADDPD, Y6, Y15)
	VBROADCASTSD 8(SI)(CX*1), Y8
	DOTS_TERM(VMULPD, VADDPD, Y3, Y14)
	DOTS_TERM(VMULPD, VADDPD, Y7, Y15)
	ADDQ $16, CX
	JNZ  step64

	VMOVUPD Y14, (DI)
	VMOVUPD Y15, 32(DI)
	ADDQ    $64, DI
	ADDQ    $32, DX
	DECQ    BX
	JNZ     pass64
	DOTS_TAIL(pass64, done64, 8)
done64:
	VZEROUPPER
	RET

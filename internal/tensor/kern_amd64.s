//go:build amd64 && !purego

#include "textflag.h"

// AVX2 inner kernels. Each one does the arithmetic of the Go loop named
// in its comment in that loop's association order, with VMULPD and VADDPD
// as separate, separately rounded instructions (no FMA), so a float
// result has the bits the Go loop gives; the integer kernel is exact.
// Callers pass element counts that are whole vectors and finish the tail
// in Go.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// PANEL4 is one vector of axpyPanel4's statement
//	y[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
// at byte offset off: ((a0*b0 + a1*b1) + a2*b2) + a3*b3, then y + that.
#define PANEL4(off, acc, tmp) \
	VMULPD off(R8), Y0, acc; \
	VMULPD off(R9), Y1, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R10), Y2, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R11), Y3, tmp; \
	VADDPD tmp, acc, acc; \
	VADDPD off(DI), acc, acc; \
	VMOVUPD acc, off(DI)

// func axpyPanel4AVX2(a0, a1, a2, a3 float64, b, y *float64, w, n int)
// Mirrors axpyPanel4 over the first n elements (n a positive multiple of
// 4) of y and of the four rows b0..b3 that start w elements apart at b.
TEXT ·axpyPanel4AVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ b+32(FP), R8
	MOVQ y+40(FP), DI
	MOVQ w+48(FP), DX
	MOVQ n+56(FP), CX
	LEAQ (R8)(DX*8), R9
	LEAQ (R9)(DX*8), R10
	LEAQ (R10)(DX*8), R11
	SUBQ $8, CX
	JLT  panel_last4
panel_loop8:
	PANEL4(0, Y4, Y5)
	PANEL4(32, Y6, Y7)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, DI
	SUBQ $8, CX
	JGE  panel_loop8
panel_last4:
	ADDQ $8, CX
	JEQ  panel_done
	PANEL4(0, Y4, Y5)
panel_done:
	VZEROUPPER
	RET

// func axpy4AVX2(alpha float64, x, y *float64, n int)
// Mirrors axpy4's y[i] += alpha * x[i] over n elements, n a positive
// multiple of 4.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
axpy_loop:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGT     axpy_loop
	VZEROUPPER
	RET

// func dotRows4AVX2(dst, a, b *float64, k, n int)
// Mirrors dot4 for one a row against the four consecutive b rows b[r*k:],
// r = 0..3, over their first n elements (n a positive multiple of 4):
// lane l of row r's accumulator is dot4's s_l (s_l += a[i+l]*b[i+l]), and
// dst[r] = ((s0 + s1) + s2) + s3. dot4's scalar tail is left to the caller.
TEXT ·dotRows4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ k+24(FP), DX
	MOVQ n+32(FP), CX
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
dot_loop:
	VMOVUPD (SI), Y4
	VMULPD  (R8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R10), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R11), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, CX
	JGT     dot_loop
	// Transpose so that Y8..Y11 hold s0, s1, s2, s3 of the four rows.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VADDPD     Y9, Y8, Y8
	VADDPD     Y10, Y8, Y8
	VADDPD     Y11, Y8, Y8
	VMOVUPD    Y8, (DI)
	VZEROUPPER
	RET

// func shortRowsAVX2(out, a, b0, bm, bl, bias *float64, rows, n, p, pv int) (done int)
// Mirrors matMulShortRange's vector forms over the first pv columns (pv a
// positive multiple of 4) of up to rows rows, rows > 0: a row of a is n
// wide (1 to 3), one of out p wide, and b0, bm, bl are the b rows of a's
// first, middle and last column. It stops before the first row that holds
// a zero, which the axpy way takes, and returns the number of rows done.
TEXT ·shortRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ bm+24(FP), R9
	MOVQ bl+32(FP), R10
	MOVQ bias+40(FP), R11
	MOVQ rows+48(FP), BX
	MOVQ n+56(FP), CX
	MOVQ p+64(FP), DX
	MOVQ pv+72(FP), R12
	SHLQ $3, DX
	SHLQ $3, R12
	LEAQ -1(CX), R14
	MOVQ R14, R13
	SHRQ $1, R13
	SHLQ $3, R13                   // byte offset of a's middle column
	SHLQ $3, R14                   // and of its last
short_row:
	MOVQ (SI), AX                  // ±0 is the only value whose bits shift out to 0
	SHLQ $1, AX
	JZ   short_done
	MOVQ (SI)(R13*1), AX
	SHLQ $1, AX
	JZ   short_done
	MOVQ (SI)(R14*1), AX
	SHLQ $1, AX
	JZ   short_done
	VBROADCASTSD (SI), Y0
	VBROADCASTSD (SI)(R13*1), Y1
	VBROADCASTSD (SI)(R14*1), Y2
	XORQ AX, AX
	CMPQ CX, $2
	JLT  short_col1
	JEQ  short_col2
short_col3:                        // ((bias + a0·b0) + am·bm) + al·bl
	VMULPD  (R8)(AX*1), Y0, Y3
	VADDPD  (R11)(AX*1), Y3, Y3
	VMULPD  (R9)(AX*1), Y1, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  (R10)(AX*1), Y2, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R12
	JLT     short_col3
	JMP     short_next
short_col2:                        // (bias + a0·b0) + al·bl
	VMULPD  (R8)(AX*1), Y0, Y3
	VADDPD  (R11)(AX*1), Y3, Y3
	VMULPD  (R10)(AX*1), Y2, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R12
	JLT     short_col2
	JMP     short_next
short_col1:                        // bias + a0·b0
	VMULPD  (R8)(AX*1), Y0, Y3
	VADDPD  (R11)(AX*1), Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R12
	JLT     short_col1
short_next:
	LEAQ (SI)(CX*8), SI
	ADDQ DX, DI
	DECQ BX
	JNZ  short_row
short_done:
	MOVQ rows+48(FP), AX
	SUBQ BX, AX
	MOVQ AX, done+80(FP)
	VZEROUPPER
	RET

// func narrowColAVX2(out, a, b *float64, bias float64, blocks, n, p, kn int)
// Mirrors matMulNarrowRange's 4-blocks for the output column whose b
// column starts at b (stride p) over blocks groups of four rows of a (n
// wide; out p wide), kn a positive multiple of 4 and at most n. A lane is
// a row: each 4-block of a's rows is transposed so that Y8..Y11 hold
// columns k..k+3, and s += ((p0 + p1) + p2) + p3 as the scalar loop adds
// it, from s = bias. The rows' sums are stored; the k tail is left to the
// caller.
TEXT ·narrowColAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), SI
	MOVQ blocks+32(FP), BX
	MOVQ n+40(FP), DX
	MOVQ p+48(FP), R12
	MOVQ kn+56(FP), CX
	SHLQ $3, DX                    // a row stride in bytes
	SHLQ $3, R12                   // b's and out's row stride
	SHLQ $3, CX
	LEAQ (R12)(R12*2), R13
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
narrow_block:
	VBROADCASTSD bias+24(FP), Y12  // s of the four rows
	MOVQ         SI, R14
	XORQ         AX, AX
narrow_k:
	VMOVUPD      (R8)(AX*1), Y0
	VMOVUPD      (R9)(AX*1), Y1
	VMOVUPD      (R10)(AX*1), Y2
	VMOVUPD      (R11)(AX*1), Y3
	VUNPCKLPD    Y1, Y0, Y4
	VUNPCKHPD    Y1, Y0, Y5
	VUNPCKLPD    Y3, Y2, Y6
	VUNPCKHPD    Y3, Y2, Y7
	VPERM2F128   $0x20, Y6, Y4, Y8
	VPERM2F128   $0x20, Y7, Y5, Y9
	VPERM2F128   $0x31, Y6, Y4, Y10
	VPERM2F128   $0x31, Y7, Y5, Y11
	VBROADCASTSD (R14), Y4
	VMULPD       Y4, Y8, Y8
	VBROADCASTSD (R14)(R12*1), Y5
	VMULPD       Y5, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD (R14)(R12*2), Y6
	VMULPD       Y6, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VBROADCASTSD (R14)(R13*1), Y7
	VMULPD       Y7, Y11, Y11
	VADDPD       Y11, Y8, Y8
	VADDPD       Y8, Y12, Y12
	LEAQ         (R14)(R12*4), R14
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          narrow_k
	VEXTRACTF128 $1, Y12, X13
	VMOVSD       X12, (DI)
	VMOVHPD      X12, (DI)(R12*1)
	VMOVSD       X13, (DI)(R12*2)
	VMOVHPD      X13, (DI)(R13*1)
	LEAQ         (R8)(DX*4), R8
	LEAQ         (R9)(DX*4), R9
	LEAQ         (R10)(DX*4), R10
	LEAQ         (R11)(DX*4), R11
	LEAQ         (DI)(R12*4), DI
	DECQ         BX
	JNZ          narrow_block
	VZEROUPPER
	RET

// func outerAVX2(dst, a, b *float64, rows, m, mv int)
// Mirrors matMulABTRange's k = 1 scaled copy dst[i][j] = a[i]·b[j] over
// rows rows of dst (m wide), rows > 0, and their first mv columns, mv a
// positive multiple of 4.
TEXT ·outerAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ rows+24(FP), BX
	MOVQ m+32(FP), DX
	MOVQ mv+40(FP), CX
	SHLQ $3, DX
	SHLQ $3, CX
outer_row:
	VBROADCASTSD (SI), Y0
	XORQ         AX, AX
outer_col:
	VMULPD       (R8)(AX*1), Y0, Y1
	VMOVUPD      Y1, (DI)(AX*1)
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          outer_col
	ADDQ         $8, SI
	ADDQ         DX, DI
	DECQ         BX
	JNZ          outer_row
	VZEROUPPER
	RET

// VPSHUFB control copying the low 16 bits of each 64-bit word to its
// four 16-bit lanes.
DATA spread16<>+0(SB)/8, $0x0100010001000100
DATA spread16<>+8(SB)/8, $0x0908090809080908
DATA spread16<>+16(SB)/8, $0x0100010001000100
DATA spread16<>+24(SB)/8, $0x0908090809080908
GLOBL spread16<>(SB), RODATA|NOPTR, $32

// laneMask of quant.go in every 64-bit word.
DATA evenLanes<>+0(SB)/8, $0x0000FFFF0000FFFF
DATA evenLanes<>+8(SB)/8, $0x0000FFFF0000FFFF
DATA evenLanes<>+16(SB)/8, $0x0000FFFF0000FFFF
DATA evenLanes<>+24(SB)/8, $0x0000FFFF0000FFFF
GLOBL evenLanes<>(SB), RODATA|NOPTR, $32

// SWEEP16 is sixteen input rows of one column group: the reference's
//	q := u0*c[i] + u1*c[i+1] + u2*c[i+2] + u3*c[i+3]
//	ae += q & laneMask; ao += (q >> 16) & laneMask
// with each 64-bit word of a vector standing for one row. Y4..Y7 hold
// the rows' u spread over the four 16-bit lanes; the four products summed
// per lane are at most 4*127*127 < 1<<16, as in the reference.
#define SWEEP16(c, ae, ao) \
	VPMULLW (c), Y4, Y8; \
	VPMULLW 32(c), Y5, Y9; \
	VPMULLW 64(c), Y6, Y10; \
	VPMULLW 96(c), Y7, Y11; \
	VPADDW  Y9, Y8, Y8; \
	VPADDW  Y11, Y10, Y10; \
	VPADDW  Y10, Y8, Y8; \
	VPAND   Y15, Y8, Y9; \
	VPSRLD  $16, Y8, Y8; \
	VPADDD  Y9, ae, ae; \
	VPADDD  Y8, ao, ao

// FOLD adds the four 64-bit words of acc as pairs of 32-bit lanes into ret.
#define FOLD(acc, accx, ret) \
	VEXTRACTI128 $1, acc, X8; \
	VPADDD       X8, accx, accx; \
	VPSRLDQ      $8, accx, X8; \
	VPADDD       X8, accx, accx; \
	VMOVQ        accx, ret

// func sweepPairAVX2(c0, c1, ux *uint64, n int) (ae0, ao0, ae1, ao1 uint64)
// Mirrors the two-column-group pass of QuantPanel.Sweep over the first n
// input rows, n a positive multiple of 16, and returns its four lane
// accumulators for the Go loops to finish the remaining rows on.
TEXT ·sweepPairAVX2(SB), NOSPLIT, $0-64
	MOVQ    c0+0(FP), SI
	MOVQ    c1+8(FP), DI
	MOVQ    ux+16(FP), DX
	MOVQ    n+24(FP), CX
	VMOVDQU spread16<>(SB), Y14
	VMOVDQU evenLanes<>(SB), Y15
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
sweep_loop:
	VMOVDQU (DX), Y4
	VMOVDQU 32(DX), Y5
	VMOVDQU 64(DX), Y6
	VMOVDQU 96(DX), Y7
	VPSHUFB Y14, Y4, Y4
	VPSHUFB Y14, Y5, Y5
	VPSHUFB Y14, Y6, Y6
	VPSHUFB Y14, Y7, Y7
	SWEEP16(SI, Y0, Y1)
	SWEEP16(DI, Y2, Y3)
	ADDQ    $128, SI
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JGT     sweep_loop
	FOLD(Y0, X0, ae0+32(FP))
	FOLD(Y1, X1, ao0+40(FP))
	FOLD(Y2, X2, ae1+48(FP))
	FOLD(Y3, X3, ao1+56(FP))
	VZEROUPPER
	RET

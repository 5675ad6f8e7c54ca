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

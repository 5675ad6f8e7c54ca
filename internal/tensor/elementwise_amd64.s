//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the reference loops of elementwise.go, under the rules of
// kern_amd64.s: the reference's operations in the reference's order, every
// multiply, add, divide and square root a separate correctly rounded
// instruction (no FMA), so a result has the reference's bits. n is a
// positive multiple of 4; the callers finish the tail in the reference.

// Rows of ·ewTab, the constants of elementwise.go four to a row.
#define LOG2E  ·ewTab+0(SB)
#define MAGIC  ·ewTab+32(SB)
#define LN2HI  ·ewTab+64(SB)
#define LN2LO  ·ewTab+96(SB)
#define EXPC2  ·ewTab+128(SB)
#define EXPC3  ·ewTab+160(SB)
#define EXPC4  ·ewTab+192(SB)
#define EXPC5  ·ewTab+224(SB)
#define EXPC6  ·ewTab+256(SB)
#define EXPC7  ·ewTab+288(SB)
#define EXPC8  ·ewTab+320(SB)
#define EXPC9  ·ewTab+352(SB)
#define EXPC10 ·ewTab+384(SB)
#define EXPC11 ·ewTab+416(SB)
#define ONE    ·ewTab+448(SB)
#define TWO    ·ewTab+480(SB)
#define TSMALL ·ewTab+512(SB)
#define TCLAMP ·ewTab+544(SB)
#define TANHP0 ·ewTab+576(SB)
#define TANHP1 ·ewTab+608(SB)
#define TANHP2 ·ewTab+640(SB)
#define TANHQ0 ·ewTab+672(SB)
#define TANHQ1 ·ewTab+704(SB)
#define TANHQ2 ·ewTab+736(SB)
#define SIGLO  ·ewTab+768(SB)
#define SIGHI  ·ewTab+800(SB)

DATA signBit<>+0(SB)/8, $0x8000000000000000
DATA signBit<>+8(SB)/8, $0x8000000000000000
DATA signBit<>+16(SB)/8, $0x8000000000000000
DATA signBit<>+24(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $32

// The exponent bias expCore adds to k before shifting it into place.
DATA expBias<>+0(SB)/8, $1023
DATA expBias<>+8(SB)/8, $1023
DATA expBias<>+16(SB)/8, $1023
DATA expBias<>+24(SB)/8, $1023
GLOBL expBias<>(SB), RODATA|NOPTR, $32

// EXPCORE mirrors expCore statement for statement: u in Y2, e^u out in
// Y2, Y3..Y10 clobbered. Y3 = t, Y4 = k, then r in Y2; q0..q4 in Y4..Y8,
// r² in Y9, r⁴ in Y10; lo in Y4, hi in Y6, q in Y4, p in Y4; 2^k in Y3.
#define EXPCORE \
	VMULPD LOG2E, Y2, Y3; \
	VADDPD MAGIC, Y3, Y3; \
	VSUBPD MAGIC, Y3, Y4; \
	VMULPD LN2HI, Y4, Y5; \
	VSUBPD Y5, Y2, Y2; \
	VMULPD LN2LO, Y4, Y5; \
	VSUBPD Y5, Y2, Y2; \
	VMULPD EXPC3, Y2, Y4; \
	VADDPD EXPC2, Y4, Y4; \
	VMULPD EXPC5, Y2, Y5; \
	VADDPD EXPC4, Y5, Y5; \
	VMULPD EXPC7, Y2, Y6; \
	VADDPD EXPC6, Y6, Y6; \
	VMULPD EXPC9, Y2, Y7; \
	VADDPD EXPC8, Y7, Y7; \
	VMULPD EXPC11, Y2, Y8; \
	VADDPD EXPC10, Y8, Y8; \
	VMULPD Y2, Y2, Y9; \
	VMULPD Y9, Y9, Y10; \
	VMULPD Y9, Y5, Y5; \
	VADDPD Y4, Y5, Y4; \
	VMULPD Y9, Y7, Y7; \
	VADDPD Y6, Y7, Y6; \
	VMULPD Y10, Y8, Y8; \
	VADDPD Y6, Y8, Y6; \
	VMULPD Y10, Y6, Y6; \
	VADDPD Y4, Y6, Y4; \
	VMULPD Y9, Y4, Y4; \
	VADDPD Y2, Y4, Y4; \
	VADDPD ONE, Y4, Y4; \
	VPADDQ expBias<>(SB), Y3, Y3; \
	VPSLLQ $52, Y3, Y3; \
	VMULPD Y3, Y4, Y2

// func tanhAVX2(z *float64, n int)
// Mirrors tanhRef with the lane's own branch selected after the fact, as
// y = A − N/D with one division: A = a, N = (a·s)·p, D = q where
// a < tanhSmall, else A = 1, N = 2, D = e^u + 1. A NaN fails the
// comparison and keeps the first form, as it takes tanhRef's else branch.
// The rational is computed for every lane; e^u only when some lane of the
// vector needs it, which in a trained net's pre-activations is the rarer
// case (skipping it changes no lane's bits: a lane never reads the form
// it does not select).
TEXT ·tanhAVX2(SB), NOSPLIT, $0-16
	MOVQ    z+0(FP), DI
	MOVQ    n+8(FP), CX
	VMOVDQU signBit<>(SB), Y15
tanh_loop:
	VMOVUPD   (DI), Y0
	VANDNPD   Y0, Y15, Y1          // a = |x|
	VANDPD    Y15, Y0, Y0          // the sign of x
	VMULPD    Y1, Y1, Y3           // s
	VMULPD    TANHP0, Y3, Y4
	VADDPD    TANHP1, Y4, Y4
	VMULPD    Y3, Y4, Y4
	VADDPD    TANHP2, Y4, Y4       // p
	VADDPD    TANHQ0, Y3, Y12
	VMULPD    Y3, Y12, Y12
	VADDPD    TANHQ1, Y12, Y12
	VMULPD    Y3, Y12, Y12
	VADDPD    TANHQ2, Y12, Y12     // D = q
	VMULPD    Y3, Y1, Y11          // a·s
	VMULPD    Y4, Y11, Y11         // N = (a·s)·p
	VCMPPD    $0x1D, TSMALL, Y1, Y14 // a >= tanhSmall, false for NaN
	VMOVMSKPD Y14, AX
	TESTL     AX, AX
	JZ        tanh_divide          // no lane needs e^u
	VADDPD    Y1, Y1, Y2           // u = a + a
	VMINPD    TCLAMP, Y2, Y2       // u < clamp ? u : clamp
	EXPCORE
	VADDPD    ONE, Y2, Y2          // e^u + 1
	VBLENDVPD Y14, Y2, Y12, Y12    // D
	VBLENDVPD Y14, TWO, Y11, Y11   // N
	VBLENDVPD Y14, ONE, Y1, Y1     // A
tanh_divide:
	VDIVPD    Y12, Y11, Y11
	VSUBPD    Y11, Y1, Y1          // y = A − N/D
	VORPD     Y0, Y1, Y1
	VMOVUPD   Y1, (DI)
	ADDQ      $32, DI
	SUBQ      $4, CX
	JGT       tanh_loop
	VZEROUPPER
	RET

// func sigmoidAVX2(z *float64, n int)
// Mirrors sigmoidRef. VMINPD and VMAXPD return their second source when
// an operand is NaN, which is u: the reference's comparisons are false for
// a NaN and leave u alone too.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-16
	MOVQ    z+0(FP), DI
	MOVQ    n+8(FP), CX
	VMOVUPD ONE, Y12
	VMOVUPD SIGLO, Y13
	VMOVUPD SIGHI, Y14
	VMOVDQU signBit<>(SB), Y15
sigmoid_loop:
	VXORPD  (DI), Y15, Y2          // u = −x
	VMINPD  Y2, Y14, Y2            // hi < u ? hi : u
	VMAXPD  Y2, Y13, Y2            // lo > u ? lo : u
	EXPCORE
	VADDPD  Y12, Y2, Y2
	VDIVPD  Y2, Y12, Y2            // 1/(e^u + 1)
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGT     sigmoid_loop
	VZEROUPPER
	RET

// TANHBACK is one vector of tanhBackwardRef's row statement at byte offset
// AX of the rows at SI (g), R9 (y), DI (delta) and of gb at R10, g·mask
// already in Y0: v = g·(1 − y·y), delta = v, gb += v.
#define TANHBACK \
	VMOVUPD (R9)(AX*1), Y1; \
	VMULPD  Y1, Y1, Y1; \
	VSUBPD  Y1, Y15, Y1; \
	VMULPD  Y1, Y0, Y0; \
	VMOVUPD Y0, (DI)(AX*1); \
	VADDPD  (R10)(AX*1), Y0, Y0; \
	VMOVUPD Y0, (R10)(AX*1)

// func tanhBackwardAVX2(delta, gb, grad, y, mask *float64, rows, w, n int)
// Mirrors tanhBackwardRef over the first n columns (n a positive multiple
// of 4) of rows w-wide rows, rows > 0, and zeroes gb[:n] first: each gb
// vector takes its rows in row order. A nil mask is all ones. (grad is
// tanhBackwardRef's g: the assembler reserves that name.)
TEXT ·tanhBackwardAVX2(SB), NOSPLIT, $0-64
	MOVQ    delta+0(FP), DI
	MOVQ    gb+8(FP), R10
	MOVQ    grad+16(FP), SI
	MOVQ    y+24(FP), R9
	MOVQ    mask+32(FP), R8
	MOVQ    rows+40(FP), BX
	MOVQ    w+48(FP), DX
	MOVQ    n+56(FP), CX
	SHLQ    $3, DX                 // row stride in bytes
	SHLQ    $3, CX                 // bytes of a row the kernel takes
	VMOVUPD ONE, Y15
	VXORPD  Y0, Y0, Y0
	XORQ    AX, AX
tanhback_zero:
	VMOVUPD Y0, (R10)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     tanhback_zero
	TESTQ   R8, R8
	JZ      tanhback_plain
tanhback_masked:
	XORQ    AX, AX
tanhback_masked_col:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (R8)(AX*1), Y0, Y0     // g·mask
	TANHBACK
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     tanhback_masked_col
	ADDQ    DX, DI
	ADDQ    DX, SI
	ADDQ    DX, R9
	ADDQ    DX, R8
	DECQ    BX
	JNZ     tanhback_masked
	VZEROUPPER
	RET
tanhback_plain:
	XORQ    AX, AX
tanhback_plain_col:
	VMOVUPD (SI)(AX*1), Y0
	TANHBACK
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     tanhback_plain_col
	ADDQ    DX, DI
	ADDQ    DX, SI
	ADDQ    DX, R9
	DECQ    BX
	JNZ     tanhback_plain
	VZEROUPPER
	RET

// func adamStepAVX2(val, grad, m, v *float64, n int, lr, beta1, beta2, eps, invC1, invC2 float64)
// Mirrors adamStepRef: VSQRTPD and VDIVPD are correctly rounded, as
// math.Sqrt and / are.
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-88
	MOVQ         val+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD lr+40(FP), Y8
	VBROADCASTSD beta1+48(FP), Y9
	VBROADCASTSD beta2+56(FP), Y10
	VBROADCASTSD eps+64(FP), Y11
	VBROADCASTSD invC1+72(FP), Y12
	VBROADCASTSD invC2+80(FP), Y13
	VMOVUPD      ONE, Y15
	VSUBPD       Y9, Y15, Y14      // g1 = 1 − beta1
	VSUBPD       Y10, Y15, Y15     // g2 = 1 − beta2
adam_loop:
	VMOVUPD (SI), Y0               // g
	VMULPD  (R8), Y9, Y1
	VMULPD  Y0, Y14, Y2
	VADDPD  Y2, Y1, Y1             // mk = beta1·m + g1·g
	VMULPD  (R9), Y10, Y3
	VMULPD  Y0, Y15, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3             // vk = beta2·v + (g2·g)·g
	VMOVUPD Y1, (R8)
	VMOVUPD Y3, (R9)
	VMULPD  Y12, Y1, Y1
	VMULPD  Y8, Y1, Y1             // lr·(mk·invC1)
	VMULPD  Y13, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y11, Y3, Y3            // sqrt(vk·invC2) + eps
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JGT     adam_loop
	VZEROUPPER
	RET

// func dropoutMaskAVX2(dst, x, mask *float64, words *uint64, n int, keep uint64, scale float64)
// Mirrors dropoutMaskRef, two words of the stream and their four units a
// step: VPMOVZXDQ widens the words' four 32-bit halves, in memory order
// the lanes of units i..i+3, and m = scale where keep > lane (both at most
// 2^32, so the signed compare is the reference's unsigned one), else +0.
TEXT ·dropoutMaskAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         mask+16(FP), R8
	MOVQ         words+24(FP), R9
	MOVQ         n+32(FP), CX
	VPBROADCASTQ keep+40(FP), Y12
	VBROADCASTSD scale+48(FP), Y13
dropout_loop:
	VPMOVZXDQ    (R9), Y0          // lane
	VPCMPGTQ     Y0, Y12, Y1       // keep > lane
	VPAND        Y13, Y1, Y1       // m
	VMOVDQU      Y1, (R8)
	VMULPD       (SI), Y1, Y2
	VMOVUPD      Y2, (DI)
	ADDQ         $16, R9
	ADDQ         $32, SI
	ADDQ         $32, R8
	ADDQ         $32, DI
	SUBQ         $4, CX
	JGT          dropout_loop
	VZEROUPPER
	RET

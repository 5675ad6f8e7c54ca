//go:build amd64 && !purego

#include "textflag.h"

// AVX2 inner kernels, and AVX-512 twins of the training products' tiles.
// Each one does the arithmetic of the Go loop named in its comment in
// that loop's association order, with VMULPD and VADDPD as separate,
// separately rounded instructions (no FMA), so a float result has the
// bits the Go loop gives; the integer kernel is exact.
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

// BCAST4 broadcasts the four a values of one 4-block of the reduction to
// Y0..Y3 from R12, whose elements are R10 bytes apart, and steps R12 over
// them.
#define BCAST4 \
	VBROADCASTSD (R12), Y0; \
	VBROADCASTSD (R12)(R10*1), Y1; \
	VBROADCASTSD (R12)(R10*2), Y2; \
	LEAQ         (R12)(R10*2), R12; \
	VBROADCASTSD (R12)(R10*1), Y3; \
	LEAQ         (R12)(R10*2), R12

// PANEL is one vector of panelRows' 4-block statement
//	y[c] += a0*b0[c] + a1*b1[c] + a2*b2[c] + a3*b3[c]
// at byte offset off of the tile, with y held in acc: ((a0*b0 + a1*b1) +
// a2*b2) + a3*b3, then acc + that. R13, BX, R8 and R9 are b's rows k to
// k+3 at the tile's first column.
#define PANEL(off, acc) \
	VMULPD off(R13), Y0, Y12; \
	VMULPD off(BX), Y1, Y13; \
	VADDPD Y13, Y12, Y12; \
	VMULPD off(R8), Y2, Y14; \
	VADDPD Y14, Y12, Y12; \
	VMULPD off(R9), Y3, Y15; \
	VADDPD Y15, Y12, Y12; \
	VADDPD Y12, acc, acc

// TAIL is one vector of the tail's y[c] += a_k*b_k[c] with a_k in Y0.
#define TAIL(off, acc) \
	VMULPD off(R13), Y0, Y12; \
	VADDPD Y12, acc, acc

// SEED loads one vector of the seed row (CX) at the tile's column AX.
#define SEED(off, acc) VMOVUPD off(CX)(AX*1), acc
#define STORE(off, acc) VMOVUPD acc, off(DI)(AX*1)

#define PANEL1 PANEL(0, Y4)
#define PANEL2 PANEL1; PANEL(32, Y5)
#define PANEL4 PANEL2; PANEL(64, Y6); PANEL(96, Y7)
#define PANEL6 PANEL4; PANEL(128, Y8); PANEL(160, Y9)
#define PANEL8 PANEL6; PANEL(192, Y10); PANEL(224, Y11)
#define TAIL1 TAIL(0, Y4)
#define TAIL2 TAIL1; TAIL(32, Y5)
#define TAIL4 TAIL2; TAIL(64, Y6); TAIL(96, Y7)
#define TAIL6 TAIL4; TAIL(128, Y8); TAIL(160, Y9)
#define TAIL8 TAIL6; TAIL(192, Y10); TAIL(224, Y11)
#define SEED1 SEED(0, Y4)
#define SEED2 SEED1; SEED(32, Y5)
#define SEED4 SEED2; SEED(64, Y6); SEED(96, Y7)
#define SEED6 SEED4; SEED(128, Y8); SEED(160, Y9)
#define SEED8 SEED6; SEED(192, Y10); SEED(224, Y11)
#define ZERO1 VXORPD Y4, Y4, Y4
#define ZERO2 ZERO1; VXORPD Y5, Y5, Y5
#define ZERO4 ZERO2; VXORPD Y6, Y6, Y6; VXORPD Y7, Y7, Y7
#define ZERO6 ZERO4; VXORPD Y8, Y8, Y8; VXORPD Y9, Y9, Y9
#define ZERO8 ZERO6; VXORPD Y10, Y10, Y10; VXORPD Y11, Y11, Y11
#define STORE1 STORE(0, Y4)
#define STORE2 STORE1; STORE(32, Y5)
#define STORE4 STORE2; STORE(64, Y6); STORE(96, Y7)
#define STORE6 STORE4; STORE(128, Y8); STORE(160, Y9)
#define STORE8 STORE6; STORE(192, Y10); STORE(224, Y11)

// func panelTileAVX2(out, a, b, bias *float64, rows, n, arow, astep, p, pv int)
// Mirrors panelRows over the first pv columns (pv a positive multiple of
// 4) of rows output rows, rows > 0: row r of out starts r*p elements on,
// its a values are a[r*arow + k*astep] for k < n, b's row k starts k*p
// elements on, and a nil bias seeds zero. The columns are cut into tiles
// of 32, 24, 16, 8 and 4 that stay in registers from seed to store.
TEXT ·panelTileAVX2(SB), NOSPLIT, $16-80
	MOVQ arow+48(FP), CX
	SHLQ $3, CX
	MOVQ CX, 8(SP)                 // bytes between rows' a values
	MOVQ astep+56(FP), R10
	MOVQ p+64(FP), DX
	SHLQ $3, R10                   // bytes between a values along k
	SHLQ $3, DX                    // one b or out row
	LEAQ (DX*4), R11               // four b rows
	XORQ AX, AX

// PANEL_TILE is one column tile of panelTileAVX2, nv vectors from column
// byte AX on, run down every output row: the row's tile is held in Y4..
// across the whole reduction, from its seed (bias, or zero when nil)
// through the n/4 4-blocks and the n%4 tail, whose zero a_k are skipped
// as panelRows' tail skips them, to one store. The b columns of the tile
// stay in cache while the rows go by. Then AX steps past the tile.
#define PANEL_TILE(seed, zero, panel, tail, store, width, lrow, lzero, lk, lloop, ltail, ltloop, lskip, lstore) \
lrow: \
	MOVQ  bias+24(FP), CX; \
	TESTQ CX, CX; \
	JZ    lzero; \
	seed; \
	JMP   lk; \
lzero: \
	zero; \
lk: \
	MOVQ  SI, R12; \
	MOVQ  b+16(FP), R13; \
	ADDQ  AX, R13; \
	LEAQ  (R13)(DX*1), BX; \
	LEAQ  (BX)(DX*1), R8; \
	LEAQ  (R8)(DX*1), R9; \
	MOVQ  n+40(FP), R14; \
	SHRQ  $2, R14; \
	JZ    ltail; \
lloop: \
	BCAST4; \
	panel; \
	ADDQ  R11, R13; \
	ADDQ  R11, BX; \
	ADDQ  R11, R8; \
	ADDQ  R11, R9; \
	DECQ  R14; \
	JNZ   lloop; \
ltail: \
	MOVQ  n+40(FP), R14; \
	ANDQ  $3, R14; \
	JZ    lstore; \
ltloop: \
	MOVQ  (R12), CX; \
	SHLQ  $1, CX; \
	JZ    lskip; \
	VBROADCASTSD (R12), Y0; \
	tail; \
lskip: \
	ADDQ  R10, R12; \
	ADDQ  DX, R13; \
	DECQ  R14; \
	JNZ   ltloop; \
lstore: \
	store; \
	ADDQ  8(SP), SI; \
	ADDQ  DX, DI; \
	DECQ  0(SP); \
	JNZ   lrow; \
	ADDQ  $width, AX; \
	JMP   panel_cols

panel_cols:
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rows+32(FP), CX
	MOVQ CX, 0(SP)                 // rows left
	MOVQ pv+72(FP), CX
	SHLQ $3, CX
	SUBQ AX, CX                    // bytes of the row left
	CMPQ CX, $256
	JGE  panel_tile8
	CMPQ CX, $192
	JGE  panel_tile6
	CMPQ CX, $128
	JGE  panel_tile4
	CMPQ CX, $64
	JGE  panel_tile2
	CMPQ CX, $32
	JGE  panel_tile1
	VZEROUPPER
	RET
panel_tile8:
	PANEL_TILE(SEED8, ZERO8, PANEL8, TAIL8, STORE8, 256, p8row, p8zero, p8k, p8loop, p8tail, p8tloop, p8skip, p8store)
panel_tile6:
	PANEL_TILE(SEED6, ZERO6, PANEL6, TAIL6, STORE6, 192, p6row, p6zero, p6k, p6loop, p6tail, p6tloop, p6skip, p6store)
panel_tile4:
	PANEL_TILE(SEED4, ZERO4, PANEL4, TAIL4, STORE4, 128, p4row, p4zero, p4k, p4loop, p4tail, p4tloop, p4skip, p4store)
panel_tile2:
	PANEL_TILE(SEED2, ZERO2, PANEL2, TAIL2, STORE2, 64, p2row, p2zero, p2k, p2loop, p2tail, p2tloop, p2skip, p2store)
panel_tile1:
	PANEL_TILE(SEED1, ZERO1, PANEL1, TAIL1, STORE1, 32, p1row, p1zero, p1k, p1loop, p1tail, p1tloop, p1skip, p1store)

// DOT is one vector step of dot4's s_l += a[i+l]*b[i+l] for the b row in
// Y10 against the a rows in Y8 (into acc0) and Y9 (into acc1).
#define DOT(acc0, acc1) \
	VMULPD Y10, Y8, Y11; \
	VADDPD Y11, acc0, acc0; \
	VMULPD Y10, Y9, Y12; \
	VADDPD Y12, acc1, acc1

// DOTSUMS turns the lane sums of four b rows against one a row, s0..s3,
// into dot4's ((s_0 + s_1) + s_2) + s_3 of each row, stored at dst: a
// transpose so that Y8..Y11 hold s_0, s_1, s_2, s_3 of the four rows.
#define DOTSUMS(s0, s1, s2, s3, dst) \
	VUNPCKLPD  s1, s0, Y12; \
	VUNPCKHPD  s1, s0, Y13; \
	VUNPCKLPD  s3, s2, Y14; \
	VUNPCKHPD  s3, s2, Y15; \
	VPERM2F128 $0x20, Y14, Y12, Y8; \
	VPERM2F128 $0x20, Y15, Y13, Y9; \
	VPERM2F128 $0x31, Y14, Y12, Y10; \
	VPERM2F128 $0x31, Y15, Y13, Y11; \
	VADDPD     Y9, Y8, Y8; \
	VADDPD     Y10, Y8, Y8; \
	VADDPD     Y11, Y8, Y8; \
	VMOVUPD    Y8, dst

// func dotTileAVX2(dst, a, b *float64, rows, k, kv, m, mv int)
// Mirrors dot4 for rows rows of a (k wide; rows > 0) against the first mv
// rows of b (k wide; mv a positive multiple of 4) over the first kv
// elements (kv a positive multiple of 4): dst[i*m + j] = ((s_0 + s_1) +
// s_2) + s_3, lane l of the accumulator of (i, j) being dot4's s_l. A tile
// is two a rows by four b rows, eight accumulators whose loads are shared
// across the tile; an odd last a row runs alone against the four. The four
// b rows stay in cache while the tiles go down a. dot4's scalar tail past
// kv is left to the caller.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), R9             // dst (0, j)
	MOVQ b+16(FP), AX              // b rows j..j+3
	MOVQ k+32(FP), CX
	MOVQ m+48(FP), DX
	SHLQ $3, CX                    // one a or b row
	SHLQ $3, DX                    // one dst row
	LEAQ (CX)(CX*2), R12           // three b rows
	MOVQ mv+56(FP), R11
	SHRQ $2, R11
dot_block:
	MOVQ R9, DI
	MOVQ a+8(FP), SI
	MOVQ rows+24(FP), BX
dot_pair:
	CMPQ BX, $2
	JLT  dot_single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R13
	MOVQ   AX, R14
	MOVQ   kv+40(FP), R10
	SHRQ   $2, R10
dot_pair_k:
	VMOVUPD (R13), Y8
	VMOVUPD (R13)(CX*1), Y9
	VMOVUPD (R14), Y10
	DOT(Y0, Y4)
	VMOVUPD (R14)(CX*1), Y10
	DOT(Y1, Y5)
	VMOVUPD (R14)(CX*2), Y10
	DOT(Y2, Y6)
	VMOVUPD (R14)(R12*1), Y10
	DOT(Y3, Y7)
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    R10
	JNZ     dot_pair_k
	DOTSUMS(Y0, Y1, Y2, Y3, (DI))
	DOTSUMS(Y4, Y5, Y6, Y7, (DI)(DX*1))
	LEAQ (SI)(CX*2), SI
	LEAQ (DI)(DX*2), DI
	SUBQ $2, BX
	JMP  dot_pair
dot_single:
	TESTQ BX, BX
	JZ    dot_next
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R13
	MOVQ   AX, R14
	MOVQ   kv+40(FP), R10
	SHRQ   $2, R10
dot_single_k:
	VMOVUPD (R13), Y8
	VMULPD  (R14), Y8, Y10
	VADDPD  Y10, Y0, Y0
	VMULPD  (R14)(CX*1), Y8, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  (R14)(CX*2), Y8, Y12
	VADDPD  Y12, Y2, Y2
	VMULPD  (R14)(R12*1), Y8, Y13
	VADDPD  Y13, Y3, Y3
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    R10
	JNZ     dot_single_k
	DOTSUMS(Y0, Y1, Y2, Y3, (DI))
dot_next:
	ADDQ $32, R9
	LEAQ (AX)(CX*4), AX
	DECQ R11
	JNZ  dot_block
	VZEROUPPER
	RET

// The AVX-512 tier of the training products (useAVX512): the same
// statements, roundings and order as the AVX2 tiles above, eight lanes a
// vector, in Z registers.

// ZBCAST4 is BCAST4 into Z0..Z3.
#define ZBCAST4 \
	VBROADCASTSD (R12), Z0; \
	VBROADCASTSD (R12)(R10*1), Z1; \
	VBROADCASTSD (R12)(R10*2), Z2; \
	LEAQ         (R12)(R10*2), R12; \
	VBROADCASTSD (R12)(R10*1), Z3; \
	LEAQ         (R12)(R10*2), R12

// ZPANEL is PANEL on one 8-vector.
#define ZPANEL(off, acc) \
	VMULPD off(R13), Z0, Z12; \
	VMULPD off(BX), Z1, Z13; \
	VADDPD Z13, Z12, Z12; \
	VMULPD off(R8), Z2, Z14; \
	VADDPD Z14, Z12, Z12; \
	VMULPD off(R9), Z3, Z15; \
	VADDPD Z15, Z12, Z12; \
	VADDPD Z12, acc, acc

#define ZTAIL(off, acc) \
	VMULPD off(R13), Z0, Z12; \
	VADDPD Z12, acc, acc

#define ZSEED(off, acc) VMOVUPD off(CX)(AX*1), acc
#define ZSTORE(off, acc) VMOVUPD acc, off(DI)(AX*1)

// The eight vectors of one 64-column tile, in Z4..Z11.
#define ZSEED8 ZSEED(0, Z4); ZSEED(64, Z5); ZSEED(128, Z6); ZSEED(192, Z7); \
	ZSEED(256, Z8); ZSEED(320, Z9); ZSEED(384, Z10); ZSEED(448, Z11)
#define ZZERO8 VPXORQ Z4, Z4, Z4; VPXORQ Z5, Z5, Z5; VPXORQ Z6, Z6, Z6; VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; VPXORQ Z9, Z9, Z9; VPXORQ Z10, Z10, Z10; VPXORQ Z11, Z11, Z11
#define ZPANEL8 ZPANEL(0, Z4); ZPANEL(64, Z5); ZPANEL(128, Z6); ZPANEL(192, Z7); \
	ZPANEL(256, Z8); ZPANEL(320, Z9); ZPANEL(384, Z10); ZPANEL(448, Z11)
#define ZTAIL8 ZTAIL(0, Z4); ZTAIL(64, Z5); ZTAIL(128, Z6); ZTAIL(192, Z7); \
	ZTAIL(256, Z8); ZTAIL(320, Z9); ZTAIL(384, Z10); ZTAIL(448, Z11)
#define ZSTORE8 ZSTORE(0, Z4); ZSTORE(64, Z5); ZSTORE(128, Z6); ZSTORE(192, Z7); \
	ZSTORE(256, Z8); ZSTORE(320, Z9); ZSTORE(384, Z10); ZSTORE(448, Z11)

// func panelTileAVX512(out, a, b, seed *float64, rows, n, arow, astep, p, pv int)
// is panelTileAVX2 over the first pv columns, pv a positive multiple of
// 64, in tiles of 64 columns (eight Z accumulators). The reduction runs
// in passes of 32 k (panelKBlock), so a tile's 16 KB of b stays in L1
// while the rows go by: the first pass seeds each row from seed (nil is
// zero), each later one from the row the pass before it stored, which is
// exact. Only the last pass has a tail.
TEXT ·panelTileAVX512(SB), NOSPLIT, $80-80
	MOVQ arow+48(FP), CX
	SHLQ $3, CX
	MOVQ CX, 8(SP)                 // bytes between rows' a values
	MOVQ astep+56(FP), R10
	MOVQ p+64(FP), DX
	SHLQ $3, R10                   // bytes between a values along k
	SHLQ $3, DX                    // one b or out row
	LEAQ (DX*4), R11               // four b rows
	MOVQ $0, 16(SP)                // bytes between seed rows: 0, then a row
	MOVQ seed+24(FP), CX
	MOVQ CX, 32(SP)                // the pass's seed: seed, then out
	MOVQ a+8(FP), CX
	MOVQ CX, 48(SP)                // the pass's a
	MOVQ b+16(FP), CX
	MOVQ CX, 56(SP)                // the pass's b
	MOVQ n+40(FP), CX
	MOVQ CX, 72(SP)                // k left
zpanel_pass:
	MOVQ 72(SP), CX
	CMPQ CX, $32
	JLE  zpanel_last
	MOVQ $32, CX
zpanel_last:
	MOVQ CX, 64(SP)                // the pass's k
	XORQ AX, AX
zpanel_cols:
	MOVQ out+0(FP), DI
	MOVQ 48(SP), SI
	MOVQ 32(SP), CX
	MOVQ CX, 24(SP)                // row 0's seed
	MOVQ rows+32(FP), CX
	MOVQ CX, 0(SP)                 // rows left
	MOVQ pv+72(FP), CX
	SHLQ $3, CX
	CMPQ AX, CX                    // AX: this tile's byte offset in a row
	JLT  zpanel_row
	MOVQ 64(SP), CX
	SUBQ CX, 72(SP)
	JZ   zpanel_done
	MOVQ CX, R12
	IMULQ R10, R12
	ADDQ R12, 48(SP)               // a past the pass's k
	IMULQ DX, CX
	ADDQ CX, 56(SP)                // b past the pass's k rows
	MOVQ out+0(FP), CX
	MOVQ CX, 32(SP)
	MOVQ DX, 16(SP)
	JMP  zpanel_pass
zpanel_done:
	VZEROUPPER
	RET
zpanel_row:
	MOVQ  24(SP), CX
	TESTQ CX, CX
	JZ    zpanel_zero
	ZSEED8
	ADDQ  16(SP), CX
	MOVQ  CX, 24(SP)
	JMP   zpanel_k
zpanel_zero:
	ZZERO8
zpanel_k:
	MOVQ  SI, R12
	MOVQ  56(SP), R13
	ADDQ  AX, R13
	LEAQ  (R13)(DX*1), BX
	LEAQ  (BX)(DX*1), R8
	LEAQ  (R8)(DX*1), R9
	MOVQ  64(SP), R14
	SHRQ  $2, R14
	JZ    zpanel_tail
zpanel_loop:
	ZBCAST4
	ZPANEL8
	ADDQ  R11, R13
	ADDQ  R11, BX
	ADDQ  R11, R8
	ADDQ  R11, R9
	DECQ  R14
	JNZ   zpanel_loop
zpanel_tail:
	MOVQ  64(SP), R14
	ANDQ  $3, R14
	JZ    zpanel_store
zpanel_tloop:
	MOVQ  (R12), CX
	SHLQ  $1, CX                   // drops the sign: ±0 skips
	JZ    zpanel_skip
	VBROADCASTSD (R12), Z0
	ZTAIL8
zpanel_skip:
	ADDQ  R10, R12
	ADDQ  DX, R13
	DECQ  R14
	JNZ   zpanel_tloop
zpanel_store:
	ZSTORE8
	ADDQ  8(SP), SI
	ADDQ  DX, DI
	DECQ  0(SP)
	JNZ   zpanel_row
	ADDQ  $512, AX
	JMP   zpanel_cols

// VPERMI2PD indices that gather, from the lane sums of two pairs of b
// rows (j, j+1 | j+2, j+3), s_0 | s_1 and s_2 | s_3 of the four rows.
DATA dotPairLo<>+0(SB)/8, $0
DATA dotPairLo<>+8(SB)/8, $4
DATA dotPairLo<>+16(SB)/8, $8
DATA dotPairLo<>+24(SB)/8, $12
DATA dotPairLo<>+32(SB)/8, $1
DATA dotPairLo<>+40(SB)/8, $5
DATA dotPairLo<>+48(SB)/8, $9
DATA dotPairLo<>+56(SB)/8, $13
GLOBL dotPairLo<>(SB), RODATA|NOPTR, $64
DATA dotPairHi<>+0(SB)/8, $2
DATA dotPairHi<>+8(SB)/8, $6
DATA dotPairHi<>+16(SB)/8, $10
DATA dotPairHi<>+24(SB)/8, $14
DATA dotPairHi<>+32(SB)/8, $3
DATA dotPairHi<>+40(SB)/8, $7
DATA dotPairHi<>+48(SB)/8, $11
DATA dotPairHi<>+56(SB)/8, $15
GLOBL dotPairHi<>(SB), RODATA|NOPTR, $64

// ZBPAIRS loads one 4-block of b rows j..j+7 (R14 row j, R8 row j+4) as
// four pairs, row j+2q in the low half of Z16+q and row j+2q+1 in the
// high half.
#define ZBPAIRS \
	VBROADCASTF64X4 (R14), Z16; \
	VINSERTF64X4    $1, (R14)(CX*1), Z16, Z16; \
	VBROADCASTF64X4 (R14)(CX*2), Z17; \
	VINSERTF64X4    $1, (R14)(R12*1), Z17, Z17; \
	VBROADCASTF64X4 (R8), Z18; \
	VINSERTF64X4    $1, (R8)(CX*1), Z18, Z18; \
	VBROADCASTF64X4 (R8)(CX*2), Z19; \
	VINSERTF64X4    $1, (R8)(R12*1), Z19, Z19

// ZDOT is one step of dot4's s_l += a[i+l]*b[i+l] of the a row at arow,
// its 4-block in both halves, against the four pairs: lane l of each half
// of s0..s3 is s_l of one b row.
#define ZDOT(arow, s0, s1, s2, s3) \
	VBROADCASTF64X4 arow, Z20; \
	VMULPD          Z16, Z20, Z21; \
	VADDPD          Z21, s0, s0; \
	VMULPD          Z17, Z20, Z22; \
	VADDPD          Z22, s1, s1; \
	VMULPD          Z18, Z20, Z23; \
	VADDPD          Z23, s2, s2; \
	VMULPD          Z19, Z20, Z24; \
	VADDPD          Z24, s3, s3

// ZDOTSUMS turns the lane sums of one a row against b rows j..j+7 into
// dot4's ((s_0 + s_1) + s_2) + s_3 of each, stored at dst: Z29 and Z30
// gather s_l of the eight rows, s0..s3 are clobbered.
#define ZDOTSUMS(s0, s1, s2, s3, dst) \
	VMOVAPD    Z25, Z27; \
	VPERMI2PD  s1, s0, Z27; \
	VPERMT2PD  s1, Z26, s0; \
	VMOVAPD    Z25, Z28; \
	VPERMI2PD  s3, s2, Z28; \
	VPERMT2PD  s3, Z26, s2; \
	VSHUFF64X2 $0x44, Z28, Z27, Z29; \
	VSHUFF64X2 $0xee, Z28, Z27, Z30; \
	VADDPD     Z30, Z29, Z29; \
	VSHUFF64X2 $0x44, s2, s0, Z30; \
	VADDPD     Z30, Z29, Z29; \
	VSHUFF64X2 $0xee, s2, s0, Z30; \
	VADDPD     Z30, Z29, Z29; \
	VMOVUPD    Z29, dst

// func dotTileAVX512(dst, a, b *float64, rows, k, kv, m, mv int)
// is dotTileAVX2 with mv a positive multiple of 8 and tiles of four a
// rows by eight b rows, an a row's lane sums against two b rows sharing
// one Z register; the rows%4 last a rows run alone against the eight.
TEXT ·dotTileAVX512(SB), NOSPLIT, $0-64
	MOVQ    dst+0(FP), R9          // dst (0, j)
	MOVQ    b+16(FP), AX           // b rows j..j+7
	MOVQ    k+32(FP), CX
	MOVQ    m+48(FP), DX
	SHLQ    $3, CX                 // one a or b row
	SHLQ    $3, DX                 // one dst row
	LEAQ    (CX)(CX*2), R12        // three a or b rows
	MOVQ    mv+56(FP), R11
	SHRQ    $3, R11
	VMOVUPD dotPairLo<>(SB), Z25
	VMOVUPD dotPairHi<>(SB), Z26
zdot_block:
	MOVQ R9, DI
	MOVQ a+8(FP), SI
	MOVQ rows+24(FP), BX
zdot_quad:
	CMPQ   BX, $4
	JLT    zdot_single
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ   SI, R13
	MOVQ   AX, R14
	LEAQ   (AX)(CX*4), R8
	MOVQ   kv+40(FP), R10
	SHRQ   $2, R10
zdot_quad_k:
	ZBPAIRS
	ZDOT((R13), Z0, Z1, Z2, Z3)
	ZDOT((R13)(CX*1), Z4, Z5, Z6, Z7)
	ZDOT((R13)(CX*2), Z8, Z9, Z10, Z11)
	ZDOT((R13)(R12*1), Z12, Z13, Z14, Z15)
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R8
	DECQ R10
	JNZ  zdot_quad_k
	ZDOTSUMS(Z0, Z1, Z2, Z3, (DI))
	ZDOTSUMS(Z4, Z5, Z6, Z7, (DI)(DX*1))
	ZDOTSUMS(Z8, Z9, Z10, Z11, (DI)(DX*2))
	LEAQ (DI)(DX*2), R10
	ZDOTSUMS(Z12, Z13, Z14, Z15, (R10)(DX*1))
	LEAQ (SI)(CX*4), SI
	LEAQ (DI)(DX*4), DI
	SUBQ $4, BX
	JMP  zdot_quad
zdot_single:
	TESTQ  BX, BX
	JZ     zdot_next
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R13
	MOVQ   AX, R14
	LEAQ   (AX)(CX*4), R8
	MOVQ   kv+40(FP), R10
	SHRQ   $2, R10
zdot_single_k:
	ZBPAIRS
	ZDOT((R13), Z0, Z1, Z2, Z3)
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R8
	DECQ R10
	JNZ  zdot_single_k
	ZDOTSUMS(Z0, Z1, Z2, Z3, (DI))
	ADDQ CX, SI
	ADDQ DX, DI
	DECQ BX
	JMP  zdot_single
zdot_next:
	ADDQ $64, R9
	LEAQ (AX)(CX*8), AX
	DECQ R11
	JNZ  zdot_block
	VZEROUPPER
	RET

// COL is one vector of the sample-outermost y[j] += b_i*a_i[j], b_i in Y0.
#define COL(off, acc) \
	VMULPD off(R13), Y0, Y12; \
	VADDPD Y12, acc, acc

#define COL1 COL(0, Y4)
#define COL2 COL1; COL(32, Y5)
#define COL4 COL2; COL(64, Y6); COL(96, Y7)
#define COL6 COL4; COL(128, Y8); COL(160, Y9)
#define COL8 COL6; COL(192, Y10); COL(224, Y11)
#define DSTORE(off, acc) VMOVUPD acc, off(DI)(AX*1)
#define DSTORE1 DSTORE(0, Y4)
#define DSTORE2 DSTORE1; DSTORE(32, Y5)
#define DSTORE4 DSTORE2; DSTORE(64, Y6); DSTORE(96, Y7)
#define DSTORE6 DSTORE4; DSTORE(128, Y8); DSTORE(160, Y9)
#define DSTORE8 DSTORE6; DSTORE(192, Y10); DSTORE(224, Y11)

// COL_TILE is one tile of colAxpyAVX2: nv vectors of d from column byte AX
// on, zero-seeded and held in Y4.. while every sample adds its product.
#define COL_TILE(zero, col, store, width, lloop) \
	zero; \
	LEAQ (SI)(AX*1), R13; \
	MOVQ R8, R12; \
	MOVQ BX, R14; \
lloop: \
	VBROADCASTSD (R12), Y0; \
	col; \
	ADDQ $8, R12; \
	ADDQ DX, R13; \
	DECQ R14; \
	JNZ  lloop; \
	store; \
	ADDQ $width, AX; \
	JMP  col_cols

// func colAxpyAVX2(d, a, b *float64, n, m, mv int)
// Mirrors matMulATBRange's one-column product over the first mv elements
// of d (mv a positive multiple of 4) for n > 0 samples: from d = 0, sample
// i adds b[i]*a[i*m + j] to d[j], in sample order. The columns are cut
// into tiles of 32, 24, 16, 8 and 4 that stay in registers across the
// samples.
TEXT ·colAxpyAVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), BX
	MOVQ m+32(FP), DX
	SHLQ $3, DX                    // one a row
	XORQ AX, AX
col_cols:
	MOVQ mv+40(FP), CX
	SHLQ $3, CX
	SUBQ AX, CX
	CMPQ CX, $256
	JGE  col_tile8
	CMPQ CX, $192
	JGE  col_tile6
	CMPQ CX, $128
	JGE  col_tile4
	CMPQ CX, $64
	JGE  col_tile2
	CMPQ CX, $32
	JGE  col_tile1
	VZEROUPPER
	RET
col_tile8:
	COL_TILE(ZERO8, COL8, DSTORE8, 256, c8loop)
col_tile6:
	COL_TILE(ZERO6, COL6, DSTORE6, 192, c6loop)
col_tile4:
	COL_TILE(ZERO4, COL4, DSTORE4, 128, c4loop)
col_tile2:
	COL_TILE(ZERO2, COL2, DSTORE2, 64, c2loop)
col_tile1:
	COL_TILE(ZERO1, COL1, DSTORE1, 32, c1loop)

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

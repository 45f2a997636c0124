//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 tile kernels of the fused operator (fused.go), float32 tables
// only: one call per tile of up to FusedTile rows whose segments and
// in-segment coordinates the Go caller located beforehand (tileArgs.off,
// tileArgs.u). Every output
// element comes from the IEEE operations of the route the AVX2 family
// runs — the Horner row sweep, the AVX2 contraction kernels of
// internal/descriptor and their Go channel tails — in the same order, so
// the bits are the same (FuzzFusedTileBits, TestForceCallHashes):
//
//   Horner       p = c5, then p = p·u + c_k (VMULP then VADDP, never FMA);
//                the backward's derivative d = d·u + p beside it, dg = d·invH
//   forward      channels below cover: acc = FMA(g, r_j, acc), row order;
//                channels from cover on: acc = acc + g·r_j (mul, then add)
//   backward     channels below cover: eight ymm accumulators, chunks of
//                8 channels ascending, FMA(g|dg, dT_j, acc), folded with
//                the tree of descriptor's BWD_REDUCE32; channels from
//                cover on: eight sums from +0 in ascending channel order,
//                mul then add, added to the fold; then
//                nd = (s0 + (((r0·s4 + r1·s5) + r2·s6) + r3·s7), s1, s2, s3)
//
// cover is the AVX2 lane multiple m &^ 7 (descriptor.LaneCover). The
// forward never computes the derivative. The forward walks channel blocks
// outside and the tile's rows inside, so the 4 x block accumulator stays
// in registers; the backward walks rows outside, so each row's eight sums
// do. Float64 tables take the row route.
//
// Slab addressing as in horner_amd64.s: with R10 = m·es (the slab stride,
// also the row stride of acc and dT) and R8 = the row's segment plus the
// channel offset, R11 = R8 + 3·R10, slab p is
//   c0 (R8)  c1 (R8)(R10*1)  c2 (R8)(R10*2)
//   c3 (R11) c4 (R11)(R10*1) c5 (R11)(R10*2)

#define TA_COEF 0
#define TA_ROWS 8
#define TA_T 16
#define TA_ND 24
#define TA_U 32
#define TA_DTAIL 40
#define TA_NK 48
#define TA_M 56
#define TA_COVER 64
#define TA_INVH 72
#define TA_OFF 80

// tmask<>[i] = (1 << i) - 1, i = 0..16.
DATA tmask<>+0(SB)/2, $0x0000
DATA tmask<>+2(SB)/2, $0x0001
DATA tmask<>+4(SB)/2, $0x0003
DATA tmask<>+6(SB)/2, $0x0007
DATA tmask<>+8(SB)/2, $0x000f
DATA tmask<>+10(SB)/2, $0x001f
DATA tmask<>+12(SB)/2, $0x003f
DATA tmask<>+14(SB)/2, $0x007f
DATA tmask<>+16(SB)/2, $0x00ff
DATA tmask<>+18(SB)/2, $0x01ff
DATA tmask<>+20(SB)/2, $0x03ff
DATA tmask<>+22(SB)/2, $0x07ff
DATA tmask<>+24(SB)/2, $0x0fff
DATA tmask<>+26(SB)/2, $0x1fff
DATA tmask<>+28(SB)/2, $0x3fff
DATA tmask<>+30(SB)/2, $0x7fff
DATA tmask<>+32(SB)/2, $0xffff
GLOBL tmask<>(SB), RODATA, $34

// Permutation indices that spread channel 0 of a (g, dg) register pair
// over the lanes of the backward's tail sums: [g ×4, dg ×4]. Adding the
// channel's lane number picks that channel.
DATA tidx32<>+0(SB)/4, $0
DATA tidx32<>+4(SB)/4, $0
DATA tidx32<>+8(SB)/4, $0
DATA tidx32<>+12(SB)/4, $0
DATA tidx32<>+16(SB)/4, $16
DATA tidx32<>+20(SB)/4, $16
DATA tidx32<>+24(SB)/4, $16
DATA tidx32<>+28(SB)/4, $16
DATA tidx32<>+32(SB)/8, $0
DATA tidx32<>+40(SB)/8, $0
DATA tidx32<>+48(SB)/8, $0
DATA tidx32<>+56(SB)/8, $0
GLOBL tidx32<>(SB), RODATA, $64

// Row set-up of the forward's row loop: SI walks off, AX walks u, DX the
// environment rows, CX counts the rows. FWD_NEXT_ROW advances them by
// one u element (ES bytes) and one environment row (4·ES).
#define FWD_ROWS \
	LEAQ TA_OFF(DI), SI  \
	MOVQ TA_U(DI), AX    \
	MOVQ TA_ROWS(DI), DX \
	MOVQ TA_NK(DI), CX

// R8 = the row's segment at the block's channel offset (BX), R11 = its
// slab 3.
#define ROW_SLABS(OFF) \
	MOVQ OFF, R8          \
	ADDQ BX, R8           \
	LEAQ (R8)(R10*2), R11 \
	ADDQ R10, R11

#define FWD_NEXT_ROW(ES, RS) \
	ADDQ $8, SI \
	ADDQ ES, AX \
	ADDQ RS, DX \
	DECQ CX

// Forward group mask set-up: K1 = the group's n = min(LANES, R9) lanes,
// K2 = its lanes below cover (R13 = cover - group start, clamped to
// [0, n]), K3 = K1 &^ K2. Clobbers AX, CX, R8.
#define FWD_MASKS(LANES) \
	MOVQ    R9, AX          \
	CMPQ    AX, LANES       \
	JLE     2(PC)           \
	MOVQ    LANES, AX       \
	LEAQ    tmask<>(SB), R8 \
	MOVWLZX (R8)(AX*2), CX  \
	KMOVW   CX, K1          \
	MOVQ    R13, CX         \
	CMPQ    CX, AX          \
	JLE     2(PC)           \
	MOVQ    AX, CX          \
	TESTQ   CX, CX          \
	JGE     2(PC)           \
	XORQ    CX, CX          \
	MOVWLZX (R8)(CX*2), CX  \
	KMOVW   CX, K2          \
	KANDNW  K1, K2, K3

// --------------------------------------------------------------------- f32

// One value step on two zmm groups: p = p·u + coef. Z15 = u lanes.
#define VSTEP32(MEM0, MEM1) \
	VMULPS Z15, Z8, Z8  \
	VADDPS MEM0, Z8, Z8 \
	VMULPS Z15, Z9, Z9  \
	VADDPS MEM1, Z9, Z9

// Masked value step on one group: the slab is loaded under K1, zeroing.
#define MSTEP32(MEM) \
	VMOVUPS.Z MEM, K1, Z12 \
	VMULPS Z15, Z8, Z8     \
	VADDPS Z12, Z8, Z8

// func fusedFwdF32AVX512(a *tileArgs)
TEXT ·fusedFwdF32AVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ TA_COEF(DI), BX
	MOVQ TA_T(DI), R12         // acc row 0; rows 1, 2 at (R12)(R10*1|2)
	MOVQ TA_M(DI), R9
	MOVQ TA_COVER(DI), R13
	MOVQ R9, R10
	SHLQ $2, R10
	LEAQ (R12)(R10*2), R14
	ADDQ R10, R14              // acc row 3

	CMPQ R9, $32
	JLT  f32one
f32blk:
	VMOVUPS (R12), Z0
	VMOVUPS (R12)(R10*1), Z1
	VMOVUPS (R12)(R10*2), Z2
	VMOVUPS (R14), Z3
	VMOVUPS 64(R12), Z4
	VMOVUPS 64(R12)(R10*1), Z5
	VMOVUPS 64(R12)(R10*2), Z6
	VMOVUPS 64(R14), Z7
	FWD_ROWS
f32row:
	ROW_SLABS((SI))
	VBROADCASTSS (AX), Z15
	VMOVUPS (R11)(R10*2), Z8
	VMOVUPS 64(R11)(R10*2), Z9
	VSTEP32((R11)(R10*1), 64(R11)(R10*1))
	VSTEP32((R11), 64(R11))
	VSTEP32((R8)(R10*2), 64(R8)(R10*2))
	VSTEP32((R8)(R10*1), 64(R8)(R10*1))
	VSTEP32((R8), 64(R8))
	VBROADCASTSS (DX), Z10
	VBROADCASTSS 4(DX), Z11
	VBROADCASTSS 8(DX), Z12
	VBROADCASTSS 12(DX), Z13
	VFMADD231PS Z10, Z8, Z0
	VFMADD231PS Z11, Z8, Z1
	VFMADD231PS Z12, Z8, Z2
	VFMADD231PS Z13, Z8, Z3
	VFMADD231PS Z10, Z9, Z4
	VFMADD231PS Z11, Z9, Z5
	VFMADD231PS Z12, Z9, Z6
	VFMADD231PS Z13, Z9, Z7
	FWD_NEXT_ROW($4, $16)
	JNZ f32row
	VMOVUPS Z0, (R12)
	VMOVUPS Z1, (R12)(R10*1)
	VMOVUPS Z2, (R12)(R10*2)
	VMOVUPS Z3, (R14)
	VMOVUPS Z4, 64(R12)
	VMOVUPS Z5, 64(R12)(R10*1)
	VMOVUPS Z6, 64(R12)(R10*2)
	VMOVUPS Z7, 64(R14)
	ADDQ $128, BX
	ADDQ $128, R12
	ADDQ $128, R14
	SUBQ $32, R13
	SUBQ $32, R9
	CMPQ R9, $32
	JGE  f32blk

f32one:
	TESTQ R9, R9
	JZ    f32done
	FWD_MASKS($16)
	VMOVUPS.Z (R12), K1, Z0
	VMOVUPS.Z (R12)(R10*1), K1, Z1
	VMOVUPS.Z (R12)(R10*2), K1, Z2
	VMOVUPS.Z (R14), K1, Z3
	FWD_ROWS
f32mrow:
	ROW_SLABS((SI))
	VBROADCASTSS (AX), Z15
	VMOVUPS.Z (R11)(R10*2), K1, Z8
	MSTEP32((R11)(R10*1))
	MSTEP32((R11))
	MSTEP32((R8)(R10*2))
	MSTEP32((R8)(R10*1))
	MSTEP32((R8))
	VBROADCASTSS (DX), Z10
	VBROADCASTSS 4(DX), Z11
	VBROADCASTSS 8(DX), Z12
	VBROADCASTSS 12(DX), Z13
	KORTESTW K2, K2
	JZ       f32mtail
	VFMADD231PS Z10, Z8, K2, Z0
	VFMADD231PS Z11, Z8, K2, Z1
	VFMADD231PS Z12, Z8, K2, Z2
	VFMADD231PS Z13, Z8, K2, Z3
f32mtail:
	KORTESTW K3, K3
	JZ       f32mnext
	VMULPS Z10, Z8, K3, Z16
	VADDPS Z16, Z0, K3, Z0
	VMULPS Z11, Z8, K3, Z17
	VADDPS Z17, Z1, K3, Z1
	VMULPS Z12, Z8, K3, Z18
	VADDPS Z18, Z2, K3, Z2
	VMULPS Z13, Z8, K3, Z19
	VADDPS Z19, Z3, K3, Z3
f32mnext:
	FWD_NEXT_ROW($4, $16)
	JNZ f32mrow
	VMOVUPS Z0, K1, (R12)
	VMOVUPS Z1, K1, (R12)(R10*1)
	VMOVUPS Z2, K1, (R12)(R10*2)
	VMOVUPS Z3, K1, (R14)
	ADDQ $64, BX
	ADDQ $64, R12
	ADDQ $64, R14
	SUBQ $16, R13
	SUBQ $16, R9
	JG   f32one
f32done:
	VZEROUPPER
	RET

// Backward value-and-derivative step on one group: p = p·u + coef,
// d = d·u + p. Z8 = p, Z9 = d.
#define BSTEP32(MEM) \
	VMULPS Z15, Z8, Z8  \
	VADDPS MEM, Z8, Z8  \
	VMULPS Z15, Z9, Z9  \
	VADDPS Z8, Z9, Z9

#define BMSTEP32(MEM) \
	VMOVUPS.Z MEM, K1, Z12 \
	VMULPS Z15, Z8, Z8     \
	VADDPS Z12, Z8, Z8     \
	VMULPS Z15, Z9, Z9     \
	VADDPS Z8, Z9, Z9

// Eight ymm FMAs of one 8-channel chunk: G = g lanes, D = dg lanes, the
// dT rows at R13, R13+R10, R13+2·R10 and R14 plus OFF bytes. Operand
// roles as in contractBwdF32AVX2.
#define BFMA32(G, D, OFF) \
	VFMADD231PS OFF(R13), G, Y0        \
	VFMADD231PS OFF(R13)(R10*1), G, Y1 \
	VFMADD231PS OFF(R13)(R10*2), G, Y2 \
	VFMADD231PS OFF(R14), G, Y3        \
	VFMADD231PS OFF(R13), D, Y4        \
	VFMADD231PS OFF(R13)(R10*1), D, Y5 \
	VFMADD231PS OFF(R13)(R10*2), D, Y6 \
	VFMADD231PS OFF(R14), D, Y7

#define BWD_ZERO \
	VXORPS X0, X0, X0 \
	VXORPS X1, X1, X1 \
	VXORPS X2, X2, X2 \
	VXORPS X3, X3, X3 \
	VXORPS X4, X4, X4 \
	VXORPS X5, X5, X5 \
	VXORPS X6, X6, X6 \
	VXORPS X7, X7, X7

// Row set-up of the backward: R8/R11 = the row's segment slabs, Z15 = u,
// R13/R14 = dT rows 0 and 3, R9 = channels left. CX is the row index.
#define BWD_ROW(BCAST, ES) \
	ROW_SLABS(TA_OFF(DI)(CX*8)) \
	MOVQ TA_U(DI), AX           \
	BCAST (AX)(CX*ES), Z15      \
	MOVQ TA_T(DI), R13          \
	LEAQ (R13)(R10*2), R14      \
	ADDQ R10, R14               \
	MOVQ TA_M(DI), R9

// func fusedBwdF32AVX512(a *tileArgs)
TEXT ·fusedBwdF32AVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ TA_COEF(DI), BX
	MOVQ TA_ROWS(DI), DX
	MOVQ TA_ND(DI), R12
	MOVQ TA_M(DI), R9
	MOVQ R9, R10
	SHLQ $2, R10
	VMOVSD       TA_INVH(DI), X14
	VCVTSD2SS    X14, X14, X14
	VBROADCASTSS X14, Z14
	// K1 = the lanes of the last, partial chunk (m mod 16 of them).
	MOVQ    R9, AX
	ANDQ    $15, AX
	LEAQ    tmask<>(SB), R8
	MOVWLZX (R8)(AX*2), CX
	KMOVW   CX, K1
	// Z16 = tail permutation indices at the first tail lane (m & 8),
	// Z18 = dword ones.
	MOVQ         R9, AX
	ANDQ         $8, AX
	VPBROADCASTD AX, Z16
	VPADDD       tidx32<>(SB), Z16, Z16
	MOVL         $1, AX
	VPBROADCASTD AX, Z18
	XORQ CX, CX

b32row:
	BWD_ROW(VBROADCASTSS, 4)
	BWD_ZERO
	CMPQ R9, $16
	JLT  b32last
b32full:
	VMOVUPS (R11)(R10*2), Z8
	VMOVAPS Z8, Z9
	BSTEP32((R11)(R10*1))
	BSTEP32((R11))
	BSTEP32((R8)(R10*2))
	BSTEP32((R8)(R10*1))
	VMULPS Z15, Z8, Z8
	VADDPS (R8), Z8, Z8
	VMULPS Z14, Z9, Z9
	BFMA32(Y8, Y9, 0)
	VEXTRACTF64X4 $1, Z8, Y10
	VEXTRACTF64X4 $1, Z9, Y11
	BFMA32(Y10, Y11, 32)
	ADDQ $64, R8
	ADDQ $64, R11
	ADDQ $64, R13
	ADDQ $64, R14
	SUBQ $16, R9
	CMPQ R9, $16
	JGE  b32full
b32last:
	TESTQ R9, R9
	JZ    b32fold
	VMOVUPS.Z (R11)(R10*2), K1, Z8
	VMOVAPS Z8, Z9
	BMSTEP32((R11)(R10*1))
	BMSTEP32((R11))
	BMSTEP32((R8)(R10*2))
	BMSTEP32((R8)(R10*1))
	VMOVUPS.Z (R8), K1, Z12
	VMULPS Z15, Z8, Z8
	VADDPS Z12, Z8, Z8
	VMULPS Z14, Z9, Z9
	CMPQ R9, $8
	JLT  b32tail
	BFMA32(Y8, Y9, 0)
b32tail:
	ANDQ $7, R9
	JZ   b32fold
	// The channels past cover: lanes [0..3] sum g·dT_j, [4..7] dg·dT_j.
	VPXORD    X17, X17, X17
	VMOVDQA32 Z16, Z19
	MOVQ      TA_DTAIL(DI), SI
b32tailc:
	VMOVAPS   Z8, Z12
	VPERMT2PS Z9, Z19, Z12
	VMULPS    (SI), Y12, Y12
	VADDPS    Y12, Y17, Y17
	VPADDD    Z18, Z19, Z19
	ADDQ      $32, SI
	DECQ      R9
	JNZ       b32tailc
b32fold:
	// BWD_REDUCE32's tree, kept in registers: X0 = s0..s3, X4 = s4..s7.
	VHADDPS Y1, Y0, Y0
	VHADDPS Y3, Y2, Y2
	VHADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS Y5, Y4, Y4
	VHADDPS Y7, Y6, Y6
	VHADDPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4
	TESTQ $7, TA_M(DI)
	JZ    b32nd
	VINSERTF128  $1, X4, Y0, Y0
	VADDPS       Y17, Y0, Y0
	VEXTRACTF128 $1, Y0, X4
b32nd:
	VMULPS    (DX), X4, X12       // r_j·s_{4+j}
	VMOVSHDUP X12, X13
	VADDSS    X13, X12, X10
	VMOVHLPS  X12, X12, X13
	VADDSS    X13, X10, X10
	VPERMILPS $3, X12, X13
	VADDSS    X13, X10, X10
	VADDSS    X10, X0, X10        // s0 + ..., s1, s2, s3
	VMOVUPS   X10, (R12)
	ADDQ $16, DX
	ADDQ $16, R12
	INCQ CX
	CMPQ CX, TA_NK(DI)
	JLT  b32row
	VZEROUPPER
	RET

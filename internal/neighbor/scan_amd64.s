//go:build amd64 && !purego

#include "textflag.h"

// The scan kernel (scan_amd64.go): scanAtoms' pair test, eight candidates
// per zmm. Every lane takes the IEEE operations of MinImage and of the Go
// loop in build.go, in the same order and with no FMA (the Go compiler
// fuses nothing on amd64):
//
//   d = c - r_i
//   q = d/L, d -= L*n, n = 1 (q >= 0.5), -1 (q <= -0.5) or 0    with a box
//   d2 = (dx*dx + dy*dy) + dz*dz
//   hit = d2 < rc2 and j != i, coincident = d2 == 0 and j != i
//
// The fold is MinImage's, division included, which is the Go loop's fold
// bit for bit. A group holding a far image (|d/L| not below 1.5, or NaN)
// stops the kernel before the group, and the Go loop finishes the row. The
// indices of a group's hits are compressed (VPCOMPRESSD) to the next free
// hit words. FuzzScanKernelBits holds the kernel to the Go loop bit for
// bit.

#define SA_X 0
#define SA_Y 8
#define SA_Z 16
#define SA_IDX 24
#define SA_HITS 32
#define SA_BOX 40
#define SA_N 48
#define SA_SELF 56
#define SA_CTR 64
#define SA_RC2 88

#define C_ABS 0
#define C_HALF 8
#define C_NHALF 16
#define C_1P5 24
#define C_ONE 32
#define C_NONE 40

DATA scanc<>+0(SB)/8, $0x7fffffffffffffff  // all but the sign bit
DATA scanc<>+8(SB)/8, $0x3fe0000000000000  // 0.5
DATA scanc<>+16(SB)/8, $0xbfe0000000000000 // -0.5
DATA scanc<>+24(SB)/8, $0x3ff8000000000000 // 1.5
DATA scanc<>+32(SB)/8, $0x3ff0000000000000 // 1
DATA scanc<>+40(SB)/8, $0xbff0000000000000 // -1
GLOBL scanc<>(SB), RODATA, $48

// MINIMAGE(D, L): MinImage on one axis, D -= L*n with n = 1 (q >= 0.5),
// -1 (q <= -0.5) or 0, q = D/L; K3 keeps only the lanes where |q| < 1.5.
// Needs Z30 = 1. Clobbers Z7, Z8, K4, K5.
#define MINIMAGE(D, L) \
	VDIVPD L, D, Z7                                  \
	VPANDQ.BCST scanc<>+C_ABS(SB), Z7, Z8            \
	VCMPPD.BCST $0x11, scanc<>+C_1P5(SB), Z8, K3, K3 \
	VCMPPD.BCST $0x1d, scanc<>+C_HALF(SB), Z7, K4    \
	VCMPPD.BCST $0x12, scanc<>+C_NHALF(SB), Z7, K5   \
	VMOVAPD.Z Z30, K4, Z8                            \
	VBROADCASTSD scanc<>+C_NONE(SB), K5, Z8          \
	VMULPD Z8, L, Z8                                 \
	VSUBPD Z8, D, D

// func scanAVX512(args *scanArgs) (done, found, zeros int)
//
// R8-R10 = x, y, z, SI = idx, R11 = hits, R12 = box (0 without one), R13
// = n, BX = candidates done, DX = hits written, K6 = the zero-distance
// lanes met. Z21-Z23 = r_i, Z24-Z26 = L with a box, Z20 = rc2,
// Z18 = 0, Z30 = 1, Y19 = i on every dword lane.
TEXT ·scanAVX512(SB), NOSPLIT, $0-32
	MOVQ args+0(FP), DI
	MOVQ SA_X(DI), R8
	MOVQ SA_Y(DI), R9
	MOVQ SA_Z(DI), R10
	MOVQ SA_IDX(DI), SI
	MOVQ SA_HITS(DI), R11
	MOVQ SA_BOX(DI), R12
	MOVQ SA_N(DI), R13
	MOVQ SA_SELF(DI), AX
	VPBROADCASTD AX, Y19
	VBROADCASTSD SA_CTR(DI), Z21
	VBROADCASTSD SA_CTR+8(DI), Z22
	VBROADCASTSD SA_CTR+16(DI), Z23
	VBROADCASTSD SA_RC2(DI), Z20
	VPXORQ Z18, Z18, Z18
	VBROADCASTSD scanc<>+C_ONE(SB), Z30
	TESTQ R12, R12
	JZ   start
	VBROADCASTSD (R12), Z24
	VBROADCASTSD 8(R12), Z25
	VBROADCASTSD 16(R12), Z26

start:
	XORQ BX, BX
	XORQ DX, DX
	KXORW K6, K6, K6

loop:
	// K1 = the CX = min(n-BX, 8) lanes of the group from BX.
	CMPQ BX, R13
	JGE  done
	MOVQ R13, CX
	SUBQ BX, CX
	CMPQ CX, $8
	JLE  2(PC)
	MOVQ $8, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	// Z4-Z6 = d = c - r_i on those lanes.
	VMOVUPD.Z (R8)(BX*8), K1, Z4
	VMOVUPD.Z (R9)(BX*8), K1, Z5
	VMOVUPD.Z (R10)(BX*8), K1, Z6
	VSUBPD Z21, Z4, Z4
	VSUBPD Z22, Z5, Z5
	VSUBPD Z23, Z6, Z6
	TESTQ R12, R12
	JZ   norm
	KMOVW K1, K3
	MINIMAGE(Z4, Z24)
	MINIMAGE(Z5, Z25)
	MINIMAGE(Z6, Z26)
	KXORW K1, K3, K3
	KORTESTW K3, K3
	JNZ  done

norm:
	// Z9 = d2; K2 = the lanes whose index is not i, K3 their hits and K4
	// those at zero distance.
	VMULPD Z4, Z4, Z9
	VMULPD Z5, Z5, Z7
	VADDPD Z7, Z9, Z9
	VMULPD Z6, Z6, Z7
	VADDPD Z7, Z9, Z9
	VMOVDQU32.Z (SI)(BX*4), K1, Y0
	VPCMPD $4, Y19, Y0, K1, K2
	VCMPPD $0x11, Z20, Z9, K2, K3
	VCMPPD $0x00, Z18, Z9, K2, K4
	KORW K4, K6, K6
	// The hits' indices go to the next free words; the store covers the
	// group's CX lanes, which fit in the n words of hits since DX <= BX.
	VPCOMPRESSD Y0, K3, Y1
	VMOVDQU32 Y1, K1, (R11)(DX*4)
	KMOVW K3, AX
	POPCNTL AX, AX
	ADDQ AX, DX
	ADDQ CX, BX
	JMP  loop

done:
	MOVQ BX, done+8(FP)
	MOVQ DX, found+16(FP)
	KMOVW K6, AX
	MOVQ AX, zeros+24(FP)
	VZEROUPPER
	RET

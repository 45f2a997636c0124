//go:build amd64 && !purego

#include "textflag.h"

// Contraction kernels of the fused descriptor operators (contract.go): one
// tile of embedding rows against the 4 x m channel-minor descriptor
// item. The channel index is the SIMD axis everywhere.
//
//   forward:  acc[j][c] += Σ_i g[i][c]·rows[i][j]          (i over the tile)
//   backward: ab[i][j]   = Σ_c g[i][c]·dT[j][c]
//             ab[i][4+j] = Σ_c dg[i][c]·dT[j][c]           j = 0..3
//
// FMA throughout; the backward sums run as lane-parallel partial sums that
// are folded at the end of each row. The kernels cover the leading lane
// multiple of the channels; the Go caller finishes the rest. AVX2-encoded:
// AVX-512 hosts run the same kernels, like the Horner sweeps (zmm
// variants with a masked tail were written and measured — no difference in
// the copper step time, DESIGN.md — so they are not shipped).

#define CA_G 0
#define CA_DG 8
#define CA_ROWS 16
#define CA_T 24
#define CA_AB 32
#define CA_NK 40
#define CA_M 48

// Forward prologue: R8 = g, R10 = acc row 0, R14 = acc row 3, R13 = row
// stride in bytes (rows 1 and 2 are (R10)(R13*1) and (R10)(R13*2)),
// R9 = channels left.
#define FWD_PROLOGUE(SHIFT) \
	MOVQ args+0(FP), DI     \
	MOVQ CA_G(DI), R8       \
	MOVQ CA_T(DI), R10      \
	MOVQ CA_M(DI), R9       \
	MOVQ R9, R13            \
	SHLQ SHIFT, R13         \
	LEAQ (R10)(R13*2), R14  \
	ADDQ R13, R14

// Tile-loop set-up of one channel block: SI walks the g rows, DX the
// environment rows, CX counts them.
#define FWD_TILE_START \
	MOVQ R8, SI          \
	MOVQ CA_ROWS(DI), DX \
	MOVQ CA_NK(DI), CX

// Backward prologue: R8 = g, R9 = dg, R10/SI/DX/R14 = dT rows 0..3,
// R11 = ab, CX = rows, R12 = m, R13 = row stride in bytes.
#define BWD_PROLOGUE(SHIFT) \
	MOVQ args+0(FP), DI     \
	MOVQ CA_G(DI), R8       \
	MOVQ CA_DG(DI), R9      \
	MOVQ CA_T(DI), R10      \
	MOVQ CA_AB(DI), R11     \
	MOVQ CA_NK(DI), CX      \
	MOVQ CA_M(DI), R12      \
	MOVQ R12, R13           \
	SHLQ SHIFT, R13         \
	LEAQ (R10)(R13*1), SI   \
	LEAQ (R10)(R13*2), DX   \
	LEAQ (DX)(R13*1), R14

#define BWD_ZERO \
	VXORPS X0, X0, X0 \
	VXORPS X1, X1, X1 \
	VXORPS X2, X2, X2 \
	VXORPS X3, X3, X3 \
	VXORPS X4, X4, X4 \
	VXORPS X5, X5, X5 \
	VXORPS X6, X6, X6 \
	VXORPS X7, X7, X7

// Fold the eight f32 ymm accumulators Y0..Y7 into ab[0..7] at (R11).
#define BWD_REDUCE32 \
	VHADDPS Y1, Y0, Y0        \
	VHADDPS Y3, Y2, Y2        \
	VHADDPS Y2, Y0, Y0        \
	VEXTRACTF128 $1, Y0, X1   \
	VADDPS X1, X0, X0         \
	VMOVUPS X0, (R11)         \
	VHADDPS Y5, Y4, Y4        \
	VHADDPS Y7, Y6, Y6        \
	VHADDPS Y6, Y4, Y4        \
	VEXTRACTF128 $1, Y4, X5   \
	VADDPS X5, X4, X4         \
	VMOVUPS X4, 16(R11)

// Fold the eight f64 ymm accumulators Y0..Y7 into ab[0..7] at (R11).
#define BWD_REDUCE64 \
	VHADDPD Y1, Y0, Y0        \
	VEXTRACTF128 $1, Y0, X1   \
	VADDPD X1, X0, X0         \
	VMOVUPD X0, (R11)         \
	VHADDPD Y3, Y2, Y2        \
	VEXTRACTF128 $1, Y2, X3   \
	VADDPD X3, X2, X2         \
	VMOVUPD X2, 16(R11)       \
	VHADDPD Y5, Y4, Y4        \
	VEXTRACTF128 $1, Y4, X5   \
	VADDPD X5, X4, X4         \
	VMOVUPD X4, 32(R11)       \
	VHADDPD Y7, Y6, Y6        \
	VEXTRACTF128 $1, Y6, X7   \
	VADDPD X7, X6, X6         \
	VMOVUPD X6, 48(R11)

// --------------------------------------------------------------------- f32

// func contractFwdF32AVX2(args *contractArgs)
TEXT ·contractFwdF32AVX2(SB), NOSPLIT, $0-8
	FWD_PROLOGUE($2)
	CMPQ R9, $16
	JLT  ff32rem
ff32loop16:
	VMOVUPS (R10), Y0
	VMOVUPS (R10)(R13*1), Y1
	VMOVUPS (R10)(R13*2), Y2
	VMOVUPS (R14), Y3
	VMOVUPS 32(R10), Y4
	VMOVUPS 32(R10)(R13*1), Y5
	VMOVUPS 32(R10)(R13*2), Y6
	VMOVUPS 32(R14), Y7
	FWD_TILE_START
ff32k16:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VBROADCASTSS (DX), Y10
	VBROADCASTSS 4(DX), Y11
	VBROADCASTSS 8(DX), Y12
	VBROADCASTSS 12(DX), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ R13, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  ff32k16
	VMOVUPS Y0, (R10)
	VMOVUPS Y1, (R10)(R13*1)
	VMOVUPS Y2, (R10)(R13*2)
	VMOVUPS Y3, (R14)
	VMOVUPS Y4, 32(R10)
	VMOVUPS Y5, 32(R10)(R13*1)
	VMOVUPS Y6, 32(R10)(R13*2)
	VMOVUPS Y7, 32(R14)
	ADDQ $64, R8
	ADDQ $64, R10
	ADDQ $64, R14
	SUBQ $16, R9
	CMPQ R9, $16
	JGE  ff32loop16
ff32rem:
	CMPQ R9, $8
	JLT  ff32done
	VMOVUPS (R10), Y0
	VMOVUPS (R10)(R13*1), Y1
	VMOVUPS (R10)(R13*2), Y2
	VMOVUPS (R14), Y3
	FWD_TILE_START
ff32k8:
	VMOVUPS (SI), Y8
	VBROADCASTSS (DX), Y10
	VBROADCASTSS 4(DX), Y11
	VBROADCASTSS 8(DX), Y12
	VBROADCASTSS 12(DX), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	ADDQ R13, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  ff32k8
	VMOVUPS Y0, (R10)
	VMOVUPS Y1, (R10)(R13*1)
	VMOVUPS Y2, (R10)(R13*2)
	VMOVUPS Y3, (R14)
ff32done:
	VZEROUPPER
	RET

// func contractBwdF32AVX2(args *contractArgs)
TEXT ·contractBwdF32AVX2(SB), NOSPLIT, $0-8
	BWD_PROLOGUE($2)
	ANDQ $-8, R12            // covered channels
	JZ   fb32done
fb32row:
	BWD_ZERO
	XORQ AX, AX              // byte offset into the row
	MOVQ R12, BX
fb32c:
	VMOVUPS (R8)(AX*1), Y8
	VMOVUPS (R9)(AX*1), Y9
	VMOVUPS (R10)(AX*1), Y10
	VMOVUPS (SI)(AX*1), Y11
	VMOVUPS (DX)(AX*1), Y12
	VMOVUPS (R14)(AX*1), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ $32, AX
	SUBQ $8, BX
	JNZ  fb32c
	BWD_REDUCE32
	ADDQ R13, R8
	ADDQ R13, R9
	ADDQ $32, R11
	DECQ CX
	JNZ  fb32row
fb32done:
	VZEROUPPER
	RET

// --------------------------------------------------------------------- f64

// func contractFwdF64AVX2(args *contractArgs)
TEXT ·contractFwdF64AVX2(SB), NOSPLIT, $0-8
	FWD_PROLOGUE($3)
	CMPQ R9, $8
	JLT  ff64rem
ff64loop8:
	VMOVUPD (R10), Y0
	VMOVUPD (R10)(R13*1), Y1
	VMOVUPD (R10)(R13*2), Y2
	VMOVUPD (R14), Y3
	VMOVUPD 32(R10), Y4
	VMOVUPD 32(R10)(R13*1), Y5
	VMOVUPD 32(R10)(R13*2), Y6
	VMOVUPD 32(R14), Y7
	FWD_TILE_START
ff64k8:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VBROADCASTSD 16(DX), Y12
	VBROADCASTSD 24(DX), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ R13, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  ff64k8
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, (R10)(R13*1)
	VMOVUPD Y2, (R10)(R13*2)
	VMOVUPD Y3, (R14)
	VMOVUPD Y4, 32(R10)
	VMOVUPD Y5, 32(R10)(R13*1)
	VMOVUPD Y6, 32(R10)(R13*2)
	VMOVUPD Y7, 32(R14)
	ADDQ $64, R8
	ADDQ $64, R10
	ADDQ $64, R14
	SUBQ $8, R9
	CMPQ R9, $8
	JGE  ff64loop8
ff64rem:
	CMPQ R9, $4
	JLT  ff64done
	VMOVUPD (R10), Y0
	VMOVUPD (R10)(R13*1), Y1
	VMOVUPD (R10)(R13*2), Y2
	VMOVUPD (R14), Y3
	FWD_TILE_START
ff64k4:
	VMOVUPD (SI), Y8
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VBROADCASTSD 16(DX), Y12
	VBROADCASTSD 24(DX), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	ADDQ R13, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  ff64k4
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, (R10)(R13*1)
	VMOVUPD Y2, (R10)(R13*2)
	VMOVUPD Y3, (R14)
ff64done:
	VZEROUPPER
	RET

// func contractBwdF64AVX2(args *contractArgs)
TEXT ·contractBwdF64AVX2(SB), NOSPLIT, $0-8
	BWD_PROLOGUE($3)
	ANDQ $-4, R12            // covered channels
	JZ   fb64done
fb64row:
	BWD_ZERO
	XORQ AX, AX
	MOVQ R12, BX
fb64c:
	VMOVUPD (R8)(AX*1), Y8
	VMOVUPD (R9)(AX*1), Y9
	VMOVUPD (R10)(AX*1), Y10
	VMOVUPD (SI)(AX*1), Y11
	VMOVUPD (DX)(AX*1), Y12
	VMOVUPD (R14)(AX*1), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ $32, AX
	SUBQ $4, BX
	JNZ  fb64c
	BWD_REDUCE64
	ADDQ R13, R8
	ADDQ R13, R9
	ADDQ $64, R11
	DECQ CX
	JNZ  fb64row
fb64done:
	VZEROUPPER
	RET

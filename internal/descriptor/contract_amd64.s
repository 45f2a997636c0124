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
// AVX-512 hosts run them for the exact path, while the compressed path's
// tiles run internal/compress's tile kernels there, which keep these
// kernels' bits (fused_amd64.s).

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
// internal/compress/fused_amd64.s repeats this tree, the f32 kernels' lane
// layout and ContractBackward's tail composition by hand in its backward
// tile kernel; FuzzFusedTileBits fails there when the two drift apart.
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

// ---------------------------------------------------------------------------
// Descriptor products on AVX-512 (ContractDescriptor and
// ContractDescriptorBackward): every output element from the IEEE
// operations of the Go loop, in its order — plain VMULP + VADDP, never
// FMA, every sum from +0 — so every bit equals the Go loop's
// (FuzzDescriptorProducts). The operands also sit in the order the Go
// compiler gives those loops in a default build, which decides the
// payload a NaN-NaN pair keeps; the compiler may pick another order in
// another build, so that much is not a contract. Per chain j:
//
//   ContractDescriptor         p = t_j[k]·t_j[c], s_j = p + 0,
//                              d = s3 + ((s0 + s1) + s2)
//   backward, both sums        p = x·dD (x = t_j[c] or h_j[k]),
//                              s_j = p + s_j (j < 3), s3 = s3 + p
//   backward, head add         s_j = sub_j + s_j (j < 3), s3 = s3 + sub3
//   backward, scale            s_j·scale
//
// The forward and the backward's first sum (dTsub) run lanes over k: the
// k chunk of T's rows (forward) or of dD's row c (backward) is one vector,
// t_j[c] a broadcast. The backward's second sum runs lanes over c: a block
// of channels gathers dD's column k and h_j[k] is a broadcast. The last
// chunk or block of each axis is masked, so any ax <= m runs on the lanes.
// The backward keeps dTsub and the copy of T's head j-major in its 8·ax
// scratch: sub_j[k] = buf[j·ax+k], h_j[k] = buf[4·ax+j·ax+k].

#define DA_T 0
#define DA_D 8
#define DA_BUF 16
#define DA_M 24
#define DA_AX 32
#define DA_SCALE 40

// dmask<>[i] = (1 << i) - 1, i = 0..16.
DATA dmask<>+0(SB)/2, $0x0000
DATA dmask<>+2(SB)/2, $0x0001
DATA dmask<>+4(SB)/2, $0x0003
DATA dmask<>+6(SB)/2, $0x0007
DATA dmask<>+8(SB)/2, $0x000f
DATA dmask<>+10(SB)/2, $0x001f
DATA dmask<>+12(SB)/2, $0x003f
DATA dmask<>+14(SB)/2, $0x007f
DATA dmask<>+16(SB)/2, $0x00ff
DATA dmask<>+18(SB)/2, $0x01ff
DATA dmask<>+20(SB)/2, $0x03ff
DATA dmask<>+22(SB)/2, $0x07ff
DATA dmask<>+24(SB)/2, $0x0fff
DATA dmask<>+26(SB)/2, $0x1fff
DATA dmask<>+28(SB)/2, $0x3fff
DATA dmask<>+30(SB)/2, $0x7fff
DATA dmask<>+32(SB)/2, $0xffff
GLOBL dmask<>(SB), RODATA, $34

// diota<>: dword lane numbers 0..15, scaled by ax into gather indices.
DATA diota<>+0(SB)/4, $0
DATA diota<>+4(SB)/4, $1
DATA diota<>+8(SB)/4, $2
DATA diota<>+12(SB)/4, $3
DATA diota<>+16(SB)/4, $4
DATA diota<>+20(SB)/4, $5
DATA diota<>+24(SB)/4, $6
DATA diota<>+28(SB)/4, $7
DATA diota<>+32(SB)/4, $8
DATA diota<>+36(SB)/4, $9
DATA diota<>+40(SB)/4, $10
DATA diota<>+44(SB)/4, $11
DATA diota<>+48(SB)/4, $12
DATA diota<>+52(SB)/4, $13
DATA diota<>+56(SB)/4, $14
DATA diota<>+60(SB)/4, $15
GLOBL diota<>(SB), RODATA, $64

// KMASK(N, LANES, K): K = the mask of min(N, LANES) lanes. Clobbers AX, BX.
#define KMASK(N, LANES, K) \
	MOVQ N, AX              \
	CMPQ AX, LANES          \
	JLE  2(PC)              \
	MOVQ LANES, AX          \
	LEAQ dmask<>(SB), BX    \
	MOVWLZX (BX)(AX*2), BX  \
	KMOVW BX, K

// The chain updates of the backward: s_j = p_j + s_j for j < 3 and
// s3 = s3 + p3, with p_j in Z16-Z19 and s_j in Z0-Z3.
#define BWDSUM(ADD) \
	ADD Z0, Z16, Z0 \
	ADD Z1, Z17, Z1 \
	ADD Z2, Z18, Z2 \
	ADD Z19, Z3, Z3

// func descForwardF64AVX512(args *descArgs)
//
// R8 = t, R12 = t's row stride in bytes, R13 = k0, R14 = ax, R15 = m.
// Per k chunk: T rows' chunk in Z4-Z7 (zero-masked by K1), then every c:
// SI = &t_0[c], DX = &t_3[c], R9 = &d[c][k0].
TEXT ·descForwardF64AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ DA_T(DI), R8
	MOVQ DA_M(DI), R15
	MOVQ DA_AX(DI), R14
	MOVQ R15, R12
	SHLQ $3, R12
	VPXORQ Z31, Z31, Z31
	XORQ R13, R13
df64kloop:
	CMPQ R13, R14
	JGE  df64done
	MOVQ R14, CX
	SUBQ R13, CX
	KMASK(CX, $8, K1)
	LEAQ (R8)(R13*8), SI
	VMOVUPD.Z (SI), K1, Z4
	VMOVUPD.Z (SI)(R12*1), K1, Z5
	VMOVUPD.Z (SI)(R12*2), K1, Z6
	LEAQ (SI)(R12*2), DX
	VMOVUPD.Z (DX)(R12*1), K1, Z7
	MOVQ R8, SI
	LEAQ (SI)(R12*2), DX
	ADDQ R12, DX
	MOVQ DA_D(DI), R9
	LEAQ (R9)(R13*8), R9
	MOVQ R15, CX
df64cloop:
	VMULPD.BCST (SI), Z4, Z0
	VMULPD.BCST (SI)(R12*1), Z5, Z1
	VMULPD.BCST (SI)(R12*2), Z6, Z2
	VMULPD.BCST (DX), Z7, Z3
	VADDPD Z31, Z0, Z0
	VADDPD Z31, Z1, Z1
	VADDPD Z31, Z2, Z2
	VADDPD Z31, Z3, Z3
	VADDPD Z1, Z0, Z0
	VADDPD Z2, Z0, Z0
	VADDPD Z0, Z3, Z3
	VMOVUPD Z3, K1, (R9)
	ADDQ $8, SI
	ADDQ $8, DX
	LEAQ (R9)(R14*8), R9
	DECQ CX
	JNZ  df64cloop
	ADDQ $8, R13
	JMP  df64kloop
df64done:
	VZEROUPPER
	RET

// func descForwardF32AVX512(args *descArgs)
TEXT ·descForwardF32AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ DA_T(DI), R8
	MOVQ DA_M(DI), R15
	MOVQ DA_AX(DI), R14
	MOVQ R15, R12
	SHLQ $2, R12
	VPXORQ Z31, Z31, Z31
	XORQ R13, R13
df32kloop:
	CMPQ R13, R14
	JGE  df32done
	MOVQ R14, CX
	SUBQ R13, CX
	KMASK(CX, $16, K1)
	LEAQ (R8)(R13*4), SI
	VMOVUPS.Z (SI), K1, Z4
	VMOVUPS.Z (SI)(R12*1), K1, Z5
	VMOVUPS.Z (SI)(R12*2), K1, Z6
	LEAQ (SI)(R12*2), DX
	VMOVUPS.Z (DX)(R12*1), K1, Z7
	MOVQ R8, SI
	LEAQ (SI)(R12*2), DX
	ADDQ R12, DX
	MOVQ DA_D(DI), R9
	LEAQ (R9)(R13*4), R9
	MOVQ R15, CX
df32cloop:
	VMULPS.BCST (SI), Z4, Z0
	VMULPS.BCST (SI)(R12*1), Z5, Z1
	VMULPS.BCST (SI)(R12*2), Z6, Z2
	VMULPS.BCST (DX), Z7, Z3
	VADDPS Z31, Z0, Z0
	VADDPS Z31, Z1, Z1
	VADDPS Z31, Z2, Z2
	VADDPS Z31, Z3, Z3
	VADDPS Z1, Z0, Z0
	VADDPS Z2, Z0, Z0
	VADDPS Z0, Z3, Z3
	VMOVUPS Z3, K1, (R9)
	ADDQ $4, SI
	ADDQ $4, DX
	LEAQ (R9)(R14*4), R9
	DECQ CX
	JNZ  df32cloop
	ADDQ $16, R13
	JMP  df32kloop
df32done:
	VZEROUPPER
	RET

// func descBackwardF64AVX512(args *descArgs)
//
// R8 = t, R10 = buf, R12 = t's row stride in bytes, R11 = ax in bytes,
// R14 = ax, R15 = m.
TEXT ·descBackwardF64AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ DA_T(DI), R8
	MOVQ DA_BUF(DI), R10
	MOVQ DA_M(DI), R15
	MOVQ DA_AX(DI), R14
	MOVQ R15, R12
	SHLQ $3, R12
	MOVQ R14, R11
	SHLQ $3, R11

	// dTsub, lanes over k: S_j (Z0-Z3) over c, the chunk of dD's row c
	// in Z8, t_j[c] broadcast in Z12-Z15. The head copy h_j rides along.
	XORQ R13, R13             // k0
db64kloop:
	CMPQ R13, R14
	JGE  db64sub
	MOVQ R14, CX
	SUBQ R13, CX
	KMASK(CX, $8, K1)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ R8, SI               // &t_0[c]
	LEAQ (SI)(R12*2), DX
	ADDQ R12, DX              // &t_3[c]
	MOVQ DA_D(DI), R9
	LEAQ (R9)(R13*8), R9      // &dD[c][k0]
	MOVQ R15, CX
db64cloop:
	VMOVUPD.Z (R9), K1, Z8
	VBROADCASTSD (SI), Z12
	VBROADCASTSD (SI)(R12*1), Z13
	VBROADCASTSD (SI)(R12*2), Z14
	VBROADCASTSD (DX), Z15
	VMULPD Z8, Z12, Z16
	VMULPD Z8, Z13, Z17
	VMULPD Z8, Z14, Z18
	VMULPD Z8, Z15, Z19
	BWDSUM(VADDPD)
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ R11, R9
	DECQ CX
	JNZ  db64cloop
	// sub_j[k0:] and h_j[k0:] = t_j[k0:].
	LEAQ (R10)(R13*8), SI
	VMOVUPD Z0, K1, (SI)
	ADDQ R11, SI
	VMOVUPD Z1, K1, (SI)
	ADDQ R11, SI
	VMOVUPD Z2, K1, (SI)
	ADDQ R11, SI
	VMOVUPD Z3, K1, (SI)
	LEAQ (R8)(R13*8), DX
	VMOVUPD.Z (DX), K1, Z4
	VMOVUPD.Z (DX)(R12*1), K1, Z5
	VMOVUPD.Z (DX)(R12*2), K1, Z6
	ADDQ R12, DX
	VMOVUPD.Z (DX)(R12*2), K1, Z7
	ADDQ R11, SI
	VMOVUPD Z4, K1, (SI)
	ADDQ R11, SI
	VMOVUPD Z5, K1, (SI)
	ADDQ R11, SI
	VMOVUPD Z6, K1, (SI)
	ADDQ R11, SI
	VMOVUPD Z7, K1, (SI)
	ADDQ $8, R13
	JMP  db64kloop

	// dT, lanes over c: a block of up to 8 channels from c0 (R13), dD's
	// column k gathered into Z8 (indices Y30 = lane·ax, mask K1 copied
	// to K3 per gather), h_j[k] broadcast in Z12-Z15.
db64sub:
	VPBROADCASTD R14, Z30
	VPMULLD diota<>(SB), Z30, Z30
	VBROADCASTSD DA_SCALE(DI), Z29
	XORQ R13, R13             // c0
db64cblock:
	CMPQ R13, R15
	JGE  db64done
	MOVQ R15, CX
	SUBQ R13, CX
	KMASK(CX, $8, K1)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ R13, R9
	IMULQ R11, R9
	ADDQ DA_D(DI), R9         // &dD[c0][k]
	LEAQ (R10)(R11*4), SI     // &h_0[k]
	LEAQ (SI)(R11*2), DX
	ADDQ R11, DX              // &h_3[k]
	MOVQ R14, CX
db64kstep:
	KMOVW K1, K3
	VPXORQ Z8, Z8, Z8
	VGATHERDPD (R9)(Y30*8), K3, Z8
	VBROADCASTSD (SI), Z12
	VBROADCASTSD (SI)(R11*1), Z13
	VBROADCASTSD (SI)(R11*2), Z14
	VBROADCASTSD (DX), Z15
	VMULPD Z8, Z12, Z16
	VMULPD Z8, Z13, Z17
	VMULPD Z8, Z14, Z18
	VMULPD Z8, Z15, Z19
	BWDSUM(VADDPD)
	ADDQ $8, R9
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  db64kstep
	// Head add on the lanes with c < ax (K2).
	MOVQ R14, CX
	SUBQ R13, CX
	JLE  db64scale
	KMASK(CX, $8, K2)
	LEAQ (R10)(R13*8), SI     // &sub_0[c0]
	VMOVUPD.Z (SI), K2, Z16
	ADDQ R11, SI
	VMOVUPD.Z (SI), K2, Z17
	ADDQ R11, SI
	VMOVUPD.Z (SI), K2, Z18
	ADDQ R11, SI
	VMOVUPD.Z (SI), K2, Z19
	VADDPD Z0, Z16, K2, Z0
	VADDPD Z1, Z17, K2, Z1
	VADDPD Z2, Z18, K2, Z2
	VADDPD Z19, Z3, K2, Z3
db64scale:
	VMULPD Z29, Z0, Z0
	VMULPD Z29, Z1, Z1
	VMULPD Z29, Z2, Z2
	VMULPD Z29, Z3, Z3
	LEAQ (R8)(R13*8), SI      // &t_0[c0]
	VMOVUPD Z0, K1, (SI)
	VMOVUPD Z1, K1, (SI)(R12*1)
	VMOVUPD Z2, K1, (SI)(R12*2)
	ADDQ R12, SI
	VMOVUPD Z3, K1, (SI)(R12*2)
	ADDQ $8, R13
	JMP  db64cblock
db64done:
	VZEROUPPER
	RET

// func descBackwardF32AVX512(args *descArgs)
TEXT ·descBackwardF32AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ DA_T(DI), R8
	MOVQ DA_BUF(DI), R10
	MOVQ DA_M(DI), R15
	MOVQ DA_AX(DI), R14
	MOVQ R15, R12
	SHLQ $2, R12
	MOVQ R14, R11
	SHLQ $2, R11

	XORQ R13, R13
db32kloop:
	CMPQ R13, R14
	JGE  db32sub
	MOVQ R14, CX
	SUBQ R13, CX
	KMASK(CX, $16, K1)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ R8, SI
	LEAQ (SI)(R12*2), DX
	ADDQ R12, DX
	MOVQ DA_D(DI), R9
	LEAQ (R9)(R13*4), R9
	MOVQ R15, CX
db32cloop:
	VMOVUPS.Z (R9), K1, Z8
	VBROADCASTSS (SI), Z12
	VBROADCASTSS (SI)(R12*1), Z13
	VBROADCASTSS (SI)(R12*2), Z14
	VBROADCASTSS (DX), Z15
	VMULPS Z8, Z12, Z16
	VMULPS Z8, Z13, Z17
	VMULPS Z8, Z14, Z18
	VMULPS Z8, Z15, Z19
	BWDSUM(VADDPS)
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ R11, R9
	DECQ CX
	JNZ  db32cloop
	LEAQ (R10)(R13*4), SI
	VMOVUPS Z0, K1, (SI)
	ADDQ R11, SI
	VMOVUPS Z1, K1, (SI)
	ADDQ R11, SI
	VMOVUPS Z2, K1, (SI)
	ADDQ R11, SI
	VMOVUPS Z3, K1, (SI)
	LEAQ (R8)(R13*4), DX
	VMOVUPS.Z (DX), K1, Z4
	VMOVUPS.Z (DX)(R12*1), K1, Z5
	VMOVUPS.Z (DX)(R12*2), K1, Z6
	ADDQ R12, DX
	VMOVUPS.Z (DX)(R12*2), K1, Z7
	ADDQ R11, SI
	VMOVUPS Z4, K1, (SI)
	ADDQ R11, SI
	VMOVUPS Z5, K1, (SI)
	ADDQ R11, SI
	VMOVUPS Z6, K1, (SI)
	ADDQ R11, SI
	VMOVUPS Z7, K1, (SI)
	ADDQ $16, R13
	JMP  db32kloop

db32sub:
	VPBROADCASTD R14, Z30
	VPMULLD diota<>(SB), Z30, Z30
	VMOVSD DA_SCALE(DI), X14
	VCVTSD2SS X14, X14, X14
	VBROADCASTSS X14, Z29
	XORQ R13, R13
db32cblock:
	CMPQ R13, R15
	JGE  db32done
	MOVQ R15, CX
	SUBQ R13, CX
	KMASK(CX, $16, K1)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ R13, R9
	IMULQ R11, R9
	ADDQ DA_D(DI), R9
	LEAQ (R10)(R11*4), SI
	LEAQ (SI)(R11*2), DX
	ADDQ R11, DX
	MOVQ R14, CX
db32kstep:
	KMOVW K1, K3
	VPXORQ Z8, Z8, Z8
	VGATHERDPS (R9)(Z30*4), K3, Z8
	VBROADCASTSS (SI), Z12
	VBROADCASTSS (SI)(R11*1), Z13
	VBROADCASTSS (SI)(R11*2), Z14
	VBROADCASTSS (DX), Z15
	VMULPS Z8, Z12, Z16
	VMULPS Z8, Z13, Z17
	VMULPS Z8, Z14, Z18
	VMULPS Z8, Z15, Z19
	BWDSUM(VADDPS)
	ADDQ $4, R9
	ADDQ $4, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  db32kstep
	MOVQ R14, CX
	SUBQ R13, CX
	JLE  db32scale
	KMASK(CX, $16, K2)
	LEAQ (R10)(R13*4), SI
	VMOVUPS.Z (SI), K2, Z16
	ADDQ R11, SI
	VMOVUPS.Z (SI), K2, Z17
	ADDQ R11, SI
	VMOVUPS.Z (SI), K2, Z18
	ADDQ R11, SI
	VMOVUPS.Z (SI), K2, Z19
	VADDPS Z0, Z16, K2, Z0
	VADDPS Z1, Z17, K2, Z1
	VADDPS Z2, Z18, K2, Z2
	VADDPS Z19, Z3, K2, Z3
db32scale:
	VMULPS Z29, Z0, Z0
	VMULPS Z29, Z1, Z1
	VMULPS Z29, Z2, Z2
	VMULPS Z29, Z3, Z3
	LEAQ (R8)(R13*4), SI
	VMOVUPS Z0, K1, (SI)
	VMOVUPS Z1, K1, (SI)(R12*1)
	VMOVUPS Z2, K1, (SI)(R12*2)
	ADDQ R12, SI
	VMOVUPS Z3, K1, (SI)(R12*2)
	ADDQ $16, R13
	JMP  db32cblock
db32done:
	VZEROUPPER
	RET

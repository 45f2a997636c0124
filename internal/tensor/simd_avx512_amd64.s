//go:build amd64 && !purego

#include "textflag.h"

// AVX-512F tall-skinny kernels. Each strip first runs groups of three zmm
// column chunks per row (24 f64 / 48 f32 columns) while a group's columns
// remain, with unmasked loads and stores, then covers the rest one zmm
// column chunk per row on a single always-masked code path: K1 covers
// min(cover, n-j) lanes, so the final partial chunk runs through exactly
// the same instructions as a full one (inactive lanes read zeros, compute
// garbage, and are dropped by the masked store). Constants are the
// tanhC64/tanhC32 tables of simd_avx2_amd64.s, read through EVEX embedded
// broadcast (.BCST reads one scalar from the 32-byte replicated entry).

#define TA_A 0
#define TA_B 8
#define TA_C 16
#define TA_BIAS 24
#define TA_GRAD 32
#define TA_LDA 40
#define TA_LDB 48
#define TA_LDC 56
#define TA_LDG 64
#define TA_K 72
#define TA_N 80
#define TA_ALPHA 88
#define TA_BETA 96
#define TA_MODE 104

#define TC64_BOUND 0
#define TC64_LOG2E 32
#define TC64_LN2HI 64
#define TC64_LN2LO 96
#define TC64_POLY 128
#define TC64_ONE 512
#define TC64_TWO 544
#define TC64_ABS 576
#define TC64_SIGN 608
#define TC64_BIAS 640

#define TC32_P0 0
#define TC32_P1 32
#define TC32_P2 64
#define TC32_Q1 96
#define TC32_Q2 128
#define TC32_Q3 160
#define TC32_ONE 192
#define TC32_NEG1 224
#define TC32_CLAMP 256
#define TC32_NEGCLAMP 288


// File-local copies of the AVX2 constant tables (static <> symbols do
// not cross assembly files). Only the first scalar of each 32-byte slot
// is populated: every EVEX access is an embedded broadcast (or a
// VBROADCASTSD/SS) that reads just that scalar.
DATA tanhC64z<>+0(SB)/8, $0x4034000000000000
DATA tanhC64z<>+32(SB)/8, $0x3ff71547652b82fe
DATA tanhC64z<>+64(SB)/8, $0x3fe62e42fee00000
DATA tanhC64z<>+96(SB)/8, $0x3dea39ef35793c76
DATA tanhC64z<>+128(SB)/8, $0x3de6124613a86d09
DATA tanhC64z<>+160(SB)/8, $0x3e21eed8eff8d898
DATA tanhC64z<>+192(SB)/8, $0x3e5ae64567f544e4
DATA tanhC64z<>+224(SB)/8, $0x3e927e4fb7789f5c
DATA tanhC64z<>+256(SB)/8, $0x3ec71de3a556c734
DATA tanhC64z<>+288(SB)/8, $0x3efa01a01a01a01a
DATA tanhC64z<>+320(SB)/8, $0x3f2a01a01a01a01a
DATA tanhC64z<>+352(SB)/8, $0x3f56c16c16c16c17
DATA tanhC64z<>+384(SB)/8, $0x3f81111111111111
DATA tanhC64z<>+416(SB)/8, $0x3fa5555555555555
DATA tanhC64z<>+448(SB)/8, $0x3fc5555555555555
DATA tanhC64z<>+480(SB)/8, $0x3fe0000000000000
DATA tanhC64z<>+512(SB)/8, $0x3ff0000000000000
DATA tanhC64z<>+544(SB)/8, $0x4000000000000000
DATA tanhC64z<>+576(SB)/8, $0x7fffffffffffffff
DATA tanhC64z<>+608(SB)/8, $0x8000000000000000
DATA tanhC64z<>+640(SB)/8, $1023
GLOBL tanhC64z<>(SB), RODATA, $672

DATA tanhC32z<>+0(SB)/8, $0x4803f7c04803f7c0
DATA tanhC32z<>+32(SB)/8, $0x46875a0046875a00
DATA tanhC32z<>+64(SB)/8, $0x43bd000043bd0000
DATA tanhC32z<>+96(SB)/8, $0x4773a2004773a200
DATA tanhC32z<>+128(SB)/8, $0x4544e0004544e000
DATA tanhC32z<>+160(SB)/8, $0x41e0000041e00000
DATA tanhC32z<>+192(SB)/8, $0x3f8000003f800000
DATA tanhC32z<>+224(SB)/8, $0xbf800000bf800000
DATA tanhC32z<>+256(SB)/8, $0x409f0a3d409f0a3d
DATA tanhC32z<>+288(SB)/8, $0xc09f0a3dc09f0a3d
GLOBL tanhC32z<>(SB), RODATA, $320


// kmaskTab<>[w] = (1<<w)-1 for w = 0..16: the column mask for a chunk of
// w live lanes (f64 kernels use w <= 8, f32 up to 16).
DATA kmaskTab<>+0(SB)/2, $0x0000
DATA kmaskTab<>+2(SB)/2, $0x0001
DATA kmaskTab<>+4(SB)/2, $0x0003
DATA kmaskTab<>+6(SB)/2, $0x0007
DATA kmaskTab<>+8(SB)/2, $0x000f
DATA kmaskTab<>+10(SB)/2, $0x001f
DATA kmaskTab<>+12(SB)/2, $0x003f
DATA kmaskTab<>+14(SB)/2, $0x007f
DATA kmaskTab<>+16(SB)/2, $0x00ff
DATA kmaskTab<>+18(SB)/2, $0x01ff
DATA kmaskTab<>+20(SB)/2, $0x03ff
DATA kmaskTab<>+22(SB)/2, $0x07ff
DATA kmaskTab<>+24(SB)/2, $0x0fff
DATA kmaskTab<>+26(SB)/2, $0x1fff
DATA kmaskTab<>+28(SB)/2, $0x3fff
DATA kmaskTab<>+30(SB)/2, $0x7fff
DATA kmaskTab<>+32(SB)/2, $0xffff
GLOBL kmaskTab<>(SB), RODATA, $34

// TANH64Z4: A, B, C, D = tanh of each, eight f64 lanes apiece, as four
// interleaved chains. Each chain runs the operation sequence of the AVX2
// TANH64 macro on its own temporaries — A on Z11-Z15 with mask K2, B on
// Z16-Z20/K3, C on Z21-Z25/K4, D on Z26-Z30/K5 — so a lane's bits do not
// depend on which chain it rides, and the four divides and polynomial
// chains overlap.
#define TANH64Z4(A, B, C, D) \
	VANDPD.BCST tanhC64z<>+TC64_ABS(SB), A, Z11             \
	VANDPD.BCST tanhC64z<>+TC64_ABS(SB), B, Z16             \
	VANDPD.BCST tanhC64z<>+TC64_ABS(SB), C, Z21             \
	VANDPD.BCST tanhC64z<>+TC64_ABS(SB), D, Z26             \
	VMINPD.BCST tanhC64z<>+TC64_BOUND(SB), Z11, Z11         \
	VMINPD.BCST tanhC64z<>+TC64_BOUND(SB), Z16, Z16         \
	VMINPD.BCST tanhC64z<>+TC64_BOUND(SB), Z21, Z21         \
	VMINPD.BCST tanhC64z<>+TC64_BOUND(SB), Z26, Z26         \
	VADDPD Z11, Z11, Z11                                    \
	VADDPD Z16, Z16, Z16                                    \
	VADDPD Z21, Z21, Z21                                    \
	VADDPD Z26, Z26, Z26                                    \
	VMULPD.BCST tanhC64z<>+TC64_LOG2E(SB), Z11, Z12         \
	VMULPD.BCST tanhC64z<>+TC64_LOG2E(SB), Z16, Z17         \
	VMULPD.BCST tanhC64z<>+TC64_LOG2E(SB), Z21, Z22         \
	VMULPD.BCST tanhC64z<>+TC64_LOG2E(SB), Z26, Z27         \
	VRNDSCALEPD $0, Z12, Z12                                \
	VRNDSCALEPD $0, Z17, Z17                                \
	VRNDSCALEPD $0, Z22, Z22                                \
	VRNDSCALEPD $0, Z27, Z27                                \
	VMOVAPD Z11, Z13                                        \
	VMOVAPD Z16, Z18                                        \
	VMOVAPD Z21, Z23                                        \
	VMOVAPD Z26, Z28                                        \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2HI(SB), Z12, Z13   \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2HI(SB), Z17, Z18   \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2HI(SB), Z22, Z23   \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2HI(SB), Z27, Z28   \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2LO(SB), Z12, Z13   \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2LO(SB), Z17, Z18   \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2LO(SB), Z22, Z23   \
	VFNMADD231PD.BCST tanhC64z<>+TC64_LN2LO(SB), Z27, Z28   \
	VBROADCASTSD tanhC64z<>+TC64_POLY(SB), Z14              \
	VBROADCASTSD tanhC64z<>+TC64_POLY(SB), Z19              \
	VBROADCASTSD tanhC64z<>+TC64_POLY(SB), Z24              \
	VBROADCASTSD tanhC64z<>+TC64_POLY(SB), Z29              \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+32(SB), Z13, Z14  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+32(SB), Z18, Z19  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+32(SB), Z23, Z24  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+32(SB), Z28, Z29  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+64(SB), Z13, Z14  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+64(SB), Z18, Z19  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+64(SB), Z23, Z24  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+64(SB), Z28, Z29  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+96(SB), Z13, Z14  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+96(SB), Z18, Z19  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+96(SB), Z23, Z24  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+96(SB), Z28, Z29  \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+128(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+128(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+128(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+128(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+160(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+160(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+160(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+160(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+192(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+192(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+192(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+192(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+224(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+224(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+224(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+224(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+256(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+256(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+256(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+256(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+288(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+288(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+288(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+288(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+320(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+320(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+320(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+320(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+352(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+352(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+352(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+352(SB), Z28, Z29 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+384(SB), Z13, Z14 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+384(SB), Z18, Z19 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+384(SB), Z23, Z24 \
	VFMADD213PD.BCST tanhC64z<>+TC64_POLY+384(SB), Z28, Z29 \
	VMULPD Z13, Z14, Z14                                    \
	VMULPD Z18, Z19, Z19                                    \
	VMULPD Z23, Z24, Z24                                    \
	VMULPD Z28, Z29, Z29                                    \
	VCVTTPD2DQ Z12, Y12                                     \
	VCVTTPD2DQ Z17, Y17                                     \
	VCVTTPD2DQ Z22, Y22                                     \
	VCVTTPD2DQ Z27, Y27                                     \
	VPMOVSXDQ Y12, Z12                                      \
	VPMOVSXDQ Y17, Z17                                      \
	VPMOVSXDQ Y22, Z22                                      \
	VPMOVSXDQ Y27, Z27                                      \
	VPADDQ.BCST tanhC64z<>+TC64_BIAS(SB), Z12, Z12          \
	VPADDQ.BCST tanhC64z<>+TC64_BIAS(SB), Z17, Z17          \
	VPADDQ.BCST tanhC64z<>+TC64_BIAS(SB), Z22, Z22          \
	VPADDQ.BCST tanhC64z<>+TC64_BIAS(SB), Z27, Z27          \
	VPSLLQ $52, Z12, Z12                                    \
	VPSLLQ $52, Z17, Z17                                    \
	VPSLLQ $52, Z22, Z22                                    \
	VPSLLQ $52, Z27, Z27                                    \
	VSUBPD.BCST tanhC64z<>+TC64_ONE(SB), Z12, Z15           \
	VSUBPD.BCST tanhC64z<>+TC64_ONE(SB), Z17, Z20           \
	VSUBPD.BCST tanhC64z<>+TC64_ONE(SB), Z22, Z25           \
	VSUBPD.BCST tanhC64z<>+TC64_ONE(SB), Z27, Z30           \
	VFMADD231PD Z14, Z12, Z15                               \
	VFMADD231PD Z19, Z17, Z20                               \
	VFMADD231PD Z24, Z22, Z25                               \
	VFMADD231PD Z29, Z27, Z30                               \
	VADDPD.BCST tanhC64z<>+TC64_TWO(SB), Z15, Z14           \
	VADDPD.BCST tanhC64z<>+TC64_TWO(SB), Z20, Z19           \
	VADDPD.BCST tanhC64z<>+TC64_TWO(SB), Z25, Z24           \
	VADDPD.BCST tanhC64z<>+TC64_TWO(SB), Z30, Z29           \
	VDIVPD Z14, Z15, Z15                                    \
	VDIVPD Z19, Z20, Z20                                    \
	VDIVPD Z24, Z25, Z25                                    \
	VDIVPD Z29, Z30, Z30                                    \
	VANDPD.BCST tanhC64z<>+TC64_SIGN(SB), A, Z11            \
	VANDPD.BCST tanhC64z<>+TC64_SIGN(SB), B, Z16            \
	VANDPD.BCST tanhC64z<>+TC64_SIGN(SB), C, Z21            \
	VANDPD.BCST tanhC64z<>+TC64_SIGN(SB), D, Z26            \
	VORPD Z11, Z15, Z15                                     \
	VORPD Z16, Z20, Z20                                     \
	VORPD Z21, Z25, Z25                                     \
	VORPD Z26, Z30, Z30                                     \
	VCMPPD $3, A, A, K2                                     \
	VCMPPD $3, B, B, K3                                     \
	VCMPPD $3, C, C, K4                                     \
	VCMPPD $3, D, D, K5                                     \
	VMOVAPD A, K2, Z15                                      \
	VMOVAPD B, K3, Z20                                      \
	VMOVAPD C, K4, Z25                                      \
	VMOVAPD D, K5, Z30                                      \
	VMOVAPD Z15, A                                          \
	VMOVAPD Z20, B                                          \
	VMOVAPD Z25, C                                          \
	VMOVAPD Z30, D

// GRAD64Z: OUT = 1 - ACC*ACC, single-rounded.
#define GRAD64Z(ACC, OUT) \
	VMOVAPD ACC, OUT \
	VFNMADD213PD.BCST tanhC64z<>+TC64_ONE(SB), ACC, OUT

// TANH32Z: ACC = tanhf(ACC) on sixteen lanes, bit-identical to the scalar
// tanhf. Polynomial constants live in Z16-Z25 (loaded once per kernel
// call). Temps Z11-Z13, mask K2.
#define TANH32Z(ACC) \
	VMULPS ACC, ACC, Z11      \
	VADDPS Z18, Z11, Z12      \
	VMULPS Z11, Z12, Z12      \
	VADDPS Z17, Z12, Z12      \
	VMULPS Z11, Z12, Z12      \
	VADDPS Z16, Z12, Z12      \
	VMULPS ACC, Z12, Z12      \
	VMULPS Z21, Z11, Z13      \
	VADDPS Z20, Z13, Z13      \
	VMULPS Z11, Z13, Z13      \
	VADDPS Z19, Z13, Z13      \
	VMULPS Z11, Z13, Z13      \
	VADDPS Z16, Z13, Z13      \
	VDIVPS Z13, Z12, Z12      \
	VCMPPS $0x1e, Z22, Z12, K2 \
	VMOVAPS Z22, K2, Z12      \
	VCMPPS $0x11, Z23, Z12, K2 \
	VMOVAPS Z23, K2, Z12      \
	VCMPPS $0x1e, Z24, ACC, K2 \
	VMOVAPS Z22, K2, Z12      \
	VCMPPS $0x11, Z25, ACC, K2 \
	VMOVAPS Z23, K2, Z12      \
	VMOVAPS Z12, ACC

// GRAD32Z: OUT = 1 - ACC*ACC, single-rounded (Z22 = 1.0f).
#define GRAD32Z(ACC, OUT) \
	VMOVAPS ACC, OUT \
	VFNMADD213PS Z22, ACC, OUT

// ---------------------------------------------------------------------------
// func tsTileF64AVX512(args *tileArgs)
//
// One 8-row strip over all n columns in two loops over the same per-element
// arithmetic. While 24 columns remain, a group of three zmm per row: 24
// accumulators Z0-Z23 (row r, zmm c in Z(3r+c)), B row in Z24-Z26
// (unmasked loads), each A element broadcast once per k into one of
// Z27-Z31 and multiplied into its row's three accumulators — 11 loads per
// 24 FMAs, two k per loop trip after an odd first one (G64KSTEP). The rest
// in masked one-zmm chunks of 8 (z64jloop). Every element is seeded with
// its bias or zero and gets one FMA per k in ascending k in either loop,
// and the two loops' epilogues are the same operations, so an element's
// bits do not depend on the loop that computes it. A rows address from
// three advancing bases (R8 = row 0, R9 = row 3, R10 = row 6).
//
// The group's epilogue: modes 0 and 1 finish in registers (alpha Z24, beta
// Z25, C row Z26). The tanh modes store the 24 raw sums to C and run
// TANH64Z4 over six blocks of 4 rows x one zmm reloaded from C into Z0-Z3,
// then GRAD64Z into grad. The one-zmm chunks: accumulators Z0..Z7 (one per
// row), B chunk Z8, each A element the embedded-broadcast operand of its
// FMA, alpha Z9, beta Z10, and the tanh runs the eight accumulators as two
// TANH64Z4 rounds.

// G64FMA3: row accumulators A0-A2 += broadcast(A element at MEM) * Z24-Z26.
#define G64FMA3(MEM, BR, A0, A1, A2) \
	VBROADCASTSD MEM, BR      \
	VFMADD231PD Z24, BR, A0   \
	VFMADD231PD Z25, BR, A1   \
	VFMADD231PD Z26, BR, A2

// G64KSTEP: one k of the group: B row (three zmm at B0-B2) into Z24-Z26,
// then every row's three FMAs with its A element at displacement OFF.
#define G64KSTEP(B0, B1, B2, OFF) \
	VMOVUPD B0, Z24                              \
	VMOVUPD B1, Z25                              \
	VMOVUPD B2, Z26                              \
	G64FMA3(OFF(R8), Z27, Z0, Z1, Z2)            \
	G64FMA3(OFF(R8)(CX*1), Z28, Z3, Z4, Z5)      \
	G64FMA3(OFF(R8)(CX*2), Z29, Z6, Z7, Z8)      \
	G64FMA3(OFF(R9), Z30, Z9, Z10, Z11)          \
	G64FMA3(OFF(R9)(CX*1), Z31, Z12, Z13, Z14)   \
	G64FMA3(OFF(R9)(CX*2), Z27, Z15, Z16, Z17)   \
	G64FMA3(OFF(R10), Z28, Z18, Z19, Z20)        \
	G64FMA3(OFF(R10)(CX*1), Z29, Z21, Z22, Z23)

// G64BETA3: row accumulators A0-A2 += beta (Z25) * C row at DX; DX steps
// to the next row.
#define G64BETA3(A0, A1, A2) \
	VMOVUPD (DX), Z26            \
	VFMADD231PD Z26, Z25, A0     \
	VMOVUPD 64(DX), Z26          \
	VFMADD231PD Z26, Z25, A1     \
	VMOVUPD 128(DX), Z26         \
	VFMADD231PD Z26, Z25, A2     \
	ADDQ BX, DX

// G64STORE3: C row at DX = A0-A2; DX steps to the next row.
#define G64STORE3(A0, A1, A2) \
	VMOVUPD A0, (DX)      \
	VMOVUPD A1, 64(DX)    \
	VMOVUPD A2, 128(DX)   \
	ADDQ BX, DX

TEXT ·tsTileF64AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $3, CX
	MOVQ TA_LDB(DI), R15
	SHLQ $3, R15
	MOVQ TA_LDC(DI), BX
	SHLQ $3, BX
	XORQ R14, R14             // j

g64loop:
	MOVQ TA_N(DI), DX
	SUBQ R14, DX
	CMPQ DX, $24
	JLT  z64jloop

	MOVQ TA_MODE(DI), AX
	TESTQ AX, AX
	JNZ  g64initbias
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	JMP  g64initrows

g64initbias:
	MOVQ TA_BIAS(DI), DX
	LEAQ (DX)(R14*8), DX
	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD 128(DX), Z2

g64initrows:
	VMOVAPD Z0, Z3
	VMOVAPD Z1, Z4
	VMOVAPD Z2, Z5
	VMOVAPD Z0, Z6
	VMOVAPD Z1, Z7
	VMOVAPD Z2, Z8
	VMOVAPD Z0, Z9
	VMOVAPD Z1, Z10
	VMOVAPD Z2, Z11
	VMOVAPD Z0, Z12
	VMOVAPD Z1, Z13
	VMOVAPD Z2, Z14
	VMOVAPD Z0, Z15
	VMOVAPD Z1, Z16
	VMOVAPD Z2, Z17
	VMOVAPD Z0, Z18
	VMOVAPD Z1, Z19
	VMOVAPD Z2, Z20
	VMOVAPD Z0, Z21
	VMOVAPD Z1, Z22
	VMOVAPD Z2, Z23

	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9               // row 3
	LEAQ (R9)(CX*2), R10
	ADDQ CX, R10              // row 6
	MOVQ TA_B(DI), R12
	LEAQ (R12)(R14*8), R12
	MOVQ TA_K(DI), R13

	TESTQ $1, R13
	JZ   g64kpairs
	G64KSTEP((R12), 64(R12), 128(R12), 0)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ R15, R12
	DECQ R13
	JZ   g64kdone

g64kpairs:
	G64KSTEP((R12), 64(R12), 128(R12), 0)
	G64KSTEP((R12)(R15*1), 64(R12)(R15*1), 128(R12)(R15*1), 8)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	LEAQ (R12)(R15*2), R12
	SUBQ $2, R13
	JNZ  g64kpairs

g64kdone:
	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*8), SI
	CMPQ AX, $1
	JGE  g64storeplain

	// mode 0: C = alpha*acc + beta*C; beta = ±0 reads no C.
	VBROADCASTSD TA_ALPHA(DI), Z24
	VMULPD Z24, Z0, Z0
	VMULPD Z24, Z1, Z1
	VMULPD Z24, Z2, Z2
	VMULPD Z24, Z3, Z3
	VMULPD Z24, Z4, Z4
	VMULPD Z24, Z5, Z5
	VMULPD Z24, Z6, Z6
	VMULPD Z24, Z7, Z7
	VMULPD Z24, Z8, Z8
	VMULPD Z24, Z9, Z9
	VMULPD Z24, Z10, Z10
	VMULPD Z24, Z11, Z11
	VMULPD Z24, Z12, Z12
	VMULPD Z24, Z13, Z13
	VMULPD Z24, Z14, Z14
	VMULPD Z24, Z15, Z15
	VMULPD Z24, Z16, Z16
	VMULPD Z24, Z17, Z17
	VMULPD Z24, Z18, Z18
	VMULPD Z24, Z19, Z19
	VMULPD Z24, Z20, Z20
	VMULPD Z24, Z21, Z21
	VMULPD Z24, Z22, Z22
	VMULPD Z24, Z23, Z23
	MOVQ TA_BETA(DI), DX
	SHLQ $1, DX               // drop the sign: zero iff beta is ±0
	JZ   g64storeplain
	VBROADCASTSD TA_BETA(DI), Z25
	MOVQ SI, DX
	G64BETA3(Z0, Z1, Z2)
	G64BETA3(Z3, Z4, Z5)
	G64BETA3(Z6, Z7, Z8)
	G64BETA3(Z9, Z10, Z11)
	G64BETA3(Z12, Z13, Z14)
	G64BETA3(Z15, Z16, Z17)
	G64BETA3(Z18, Z19, Z20)
	G64BETA3(Z21, Z22, Z23)

g64storeplain:
	MOVQ SI, DX
	G64STORE3(Z0, Z1, Z2)
	G64STORE3(Z3, Z4, Z5)
	G64STORE3(Z6, Z7, Z8)
	G64STORE3(Z9, Z10, Z11)
	G64STORE3(Z12, Z13, Z14)
	G64STORE3(Z15, Z16, Z17)
	G64STORE3(Z18, Z19, Z20)
	G64STORE3(Z21, Z22, Z23)
	CMPQ AX, $2
	JL   g64next

	// Tanh modes: the raw sums are in C. Six blocks of 4 rows x one zmm,
	// rows 0-3 then rows 4-7, each over the group's three zmm columns:
	// R8 walks C, R12 grad (ldg bytes in R13), R9 counts the blocks and
	// R10 the blocks left in this row half.
	MOVQ SI, R8
	MOVQ TA_LDG(DI), R13
	SHLQ $3, R13
	MOVQ TA_GRAD(DI), R12
	LEAQ (R12)(R14*8), R12
	MOVQ $6, R9
	MOVQ $3, R10

g64tanh:
	LEAQ (R8)(BX*2), DX       // row 2
	VMOVUPD (R8), Z0
	VMOVUPD (R8)(BX*1), Z1
	VMOVUPD (DX), Z2
	VMOVUPD (DX)(BX*1), Z3
	TANH64Z4(Z0, Z1, Z2, Z3)
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, (R8)(BX*1)
	VMOVUPD Z2, (DX)
	VMOVUPD Z3, (DX)(BX*1)
	CMPQ AX, $3
	JNE  g64tanhnext
	LEAQ (R12)(R13*2), DX     // grad row 2
	GRAD64Z(Z0, Z11)
	VMOVUPD Z11, (R12)
	GRAD64Z(Z1, Z11)
	VMOVUPD Z11, (R12)(R13*1)
	GRAD64Z(Z2, Z11)
	VMOVUPD Z11, (DX)
	GRAD64Z(Z3, Z11)
	VMOVUPD Z11, (DX)(R13*1)

g64tanhnext:
	ADDQ $64, R8
	ADDQ $64, R12
	DECQ R10
	JNZ  g64tanhsame
	// Rows 4-7 of the group's first zmm.
	LEAQ -192(R8)(BX*4), R8
	LEAQ -192(R12)(R13*4), R12
	MOVQ $3, R10

g64tanhsame:
	DECQ R9
	JNZ  g64tanh

g64next:
	ADDQ $24, R14
	JMP  g64loop

	// One-zmm chunks: the columns past the last group.
z64jloop:
	CMPQ R14, TA_N(DI)
	JGE  z64done

	// K1 = (1 << min(8, n-j)) - 1
	MOVQ TA_N(DI), DX
	SUBQ R14, DX
	CMPQ DX, $8
	JLE  z64masked
	MOVQ $8, DX
z64masked:
	LEAQ kmaskTab<>(SB), R11
	MOVWLZX (R11)(DX*2), R11
	KMOVW R11, K1

	MOVQ TA_MODE(DI), AX
	TESTQ AX, AX
	JNZ  z64initbias
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	JMP  z64initdone

z64initbias:
	MOVQ TA_BIAS(DI), DX
	LEAQ (DX)(R14*8), DX
	VMOVUPD.Z (DX), K1, Z0
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	VMOVAPD Z0, Z4
	VMOVAPD Z0, Z5
	VMOVAPD Z0, Z6
	VMOVAPD Z0, Z7

z64initdone:
	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9               // row 3
	LEAQ (R9)(CX*2), R10
	ADDQ CX, R10              // row 6
	MOVQ TA_B(DI), R12
	LEAQ (R12)(R14*8), R12
	MOVQ TA_K(DI), R13

z64kloop:
	VMOVUPD.Z (R12), K1, Z8
	VFMADD231PD.BCST (R8), Z8, Z0
	VFMADD231PD.BCST (R8)(CX*1), Z8, Z1
	VFMADD231PD.BCST (R8)(CX*2), Z8, Z2
	VFMADD231PD.BCST (R9), Z8, Z3
	VFMADD231PD.BCST (R9)(CX*1), Z8, Z4
	VFMADD231PD.BCST (R9)(CX*2), Z8, Z5
	VFMADD231PD.BCST (R10), Z8, Z6
	VFMADD231PD.BCST (R10)(CX*1), Z8, Z7
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ R15, R12
	DECQ R13
	JNZ  z64kloop

	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*8), SI
	CMPQ AX, $1
	JE   z64storeplain
	JG   z64storetanh

	// mode 0: C = alpha*acc + beta*C.
	VBROADCASTSD TA_ALPHA(DI), Z9
	VMULPD Z9, Z0, Z0
	VMULPD Z9, Z1, Z1
	VMULPD Z9, Z2, Z2
	VMULPD Z9, Z3, Z3
	VMULPD Z9, Z4, Z4
	VMULPD Z9, Z5, Z5
	VMULPD Z9, Z6, Z6
	VMULPD Z9, Z7, Z7
	VXORPS X12, X12, X12
	UCOMISD TA_BETA(DI), X12
	JNE  z64betanz
	JP   z64betanz
	JMP  z64storeplain

z64betanz:
	VBROADCASTSD TA_BETA(DI), Z10
	MOVQ SI, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z0
	ADDQ BX, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z1
	ADDQ BX, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z2
	ADDQ BX, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z3
	ADDQ BX, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z4
	ADDQ BX, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z5
	ADDQ BX, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z6
	ADDQ BX, DX
	VMOVUPD.Z (DX), K1, Z11
	VFMADD231PD Z11, Z10, Z7

z64storeplain:
	MOVQ SI, DX
	VMOVUPD Z0, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z1, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z2, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z3, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z4, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z5, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z6, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z7, K1, (DX)
	JMP  z64nextj

z64storetanh:
	TANH64Z4(Z0, Z1, Z2, Z3)
	TANH64Z4(Z4, Z5, Z6, Z7)
	MOVQ SI, DX
	VMOVUPD Z0, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z1, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z2, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z3, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z4, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z5, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z6, K1, (DX)
	ADDQ BX, DX
	VMOVUPD Z7, K1, (DX)
	CMPQ AX, $3
	JNE  z64nextj
	MOVQ TA_LDG(DI), R13
	SHLQ $3, R13
	MOVQ TA_GRAD(DI), R12
	LEAQ (R12)(R14*8), R12
	GRAD64Z(Z0, Z11)
	VMOVUPD Z11, K1, (R12)
	ADDQ R13, R12
	GRAD64Z(Z1, Z11)
	VMOVUPD Z11, K1, (R12)
	ADDQ R13, R12
	GRAD64Z(Z2, Z11)
	VMOVUPD Z11, K1, (R12)
	ADDQ R13, R12
	GRAD64Z(Z3, Z11)
	VMOVUPD Z11, K1, (R12)
	ADDQ R13, R12
	GRAD64Z(Z4, Z11)
	VMOVUPD Z11, K1, (R12)
	ADDQ R13, R12
	GRAD64Z(Z5, Z11)
	VMOVUPD Z11, K1, (R12)
	ADDQ R13, R12
	GRAD64Z(Z6, Z11)
	VMOVUPD Z11, K1, (R12)
	ADDQ R13, R12
	GRAD64Z(Z7, Z11)
	VMOVUPD Z11, K1, (R12)

z64nextj:
	ADDQ $8, R14
	JMP  z64jloop

z64done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// func tsTileF32AVX512(args *tileArgs)
//
// Float32 variant of the f64 strip: groups of three zmm (48 columns) while
// 48 columns remain, two k per loop trip (G32KSTEP), then masked 16-lane
// chunks. The group's registers are the f64 group's (accumulators
// Z0-Z23, B row Z24-Z26, A broadcasts Z27-Z31; alpha Z24, beta Z25, C row
// Z26). Its tanh modes store the raw sums to C, load the tanhf constants
// into Z16-Z25 and run TANH32Z over the row's three zmm reloaded from C
// into Z0-Z2, row by row. The chunks find the tanhf constants in Z16-Z25,
// loaded once after the groups.

// G32FMA3: row accumulators A0-A2 += broadcast(A element at MEM) * Z24-Z26.
#define G32FMA3(MEM, BR, A0, A1, A2) \
	VBROADCASTSS MEM, BR      \
	VFMADD231PS Z24, BR, A0   \
	VFMADD231PS Z25, BR, A1   \
	VFMADD231PS Z26, BR, A2

// G32KSTEP: one k of the group: B row (three zmm at B0-B2) into Z24-Z26,
// then every row's three FMAs with its A element at displacement OFF.
#define G32KSTEP(B0, B1, B2, OFF) \
	VMOVUPS B0, Z24                              \
	VMOVUPS B1, Z25                              \
	VMOVUPS B2, Z26                              \
	G32FMA3(OFF(R8), Z27, Z0, Z1, Z2)            \
	G32FMA3(OFF(R8)(CX*1), Z28, Z3, Z4, Z5)      \
	G32FMA3(OFF(R8)(CX*2), Z29, Z6, Z7, Z8)      \
	G32FMA3(OFF(R9), Z30, Z9, Z10, Z11)          \
	G32FMA3(OFF(R9)(CX*1), Z31, Z12, Z13, Z14)   \
	G32FMA3(OFF(R9)(CX*2), Z27, Z15, Z16, Z17)   \
	G32FMA3(OFF(R10), Z28, Z18, Z19, Z20)        \
	G32FMA3(OFF(R10)(CX*1), Z29, Z21, Z22, Z23)

// G32BETA3: row accumulators A0-A2 += beta (Z25) * C row at DX; DX steps
// to the next row.
#define G32BETA3(A0, A1, A2) \
	VMOVUPS (DX), Z26            \
	VFMADD231PS Z26, Z25, A0     \
	VMOVUPS 64(DX), Z26          \
	VFMADD231PS Z26, Z25, A1     \
	VMOVUPS 128(DX), Z26         \
	VFMADD231PS Z26, Z25, A2     \
	ADDQ BX, DX

// G32STORE3: C row at DX = A0-A2; DX steps to the next row.
#define G32STORE3(A0, A1, A2) \
	VMOVUPS A0, (DX)      \
	VMOVUPS A1, 64(DX)    \
	VMOVUPS A2, 128(DX)   \
	ADDQ BX, DX

// TANH32CONSTS: the tanhf constants TANH32Z and GRAD32Z read, in Z16-Z25.
#define TANH32CONSTS \
	VBROADCASTSS tanhC32z<>+TC32_P0(SB), Z16       \
	VBROADCASTSS tanhC32z<>+TC32_P1(SB), Z17       \
	VBROADCASTSS tanhC32z<>+TC32_P2(SB), Z18       \
	VBROADCASTSS tanhC32z<>+TC32_Q1(SB), Z19       \
	VBROADCASTSS tanhC32z<>+TC32_Q2(SB), Z20       \
	VBROADCASTSS tanhC32z<>+TC32_Q3(SB), Z21       \
	VBROADCASTSS tanhC32z<>+TC32_ONE(SB), Z22      \
	VBROADCASTSS tanhC32z<>+TC32_NEG1(SB), Z23     \
	VBROADCASTSS tanhC32z<>+TC32_CLAMP(SB), Z24    \
	VBROADCASTSS tanhC32z<>+TC32_NEGCLAMP(SB), Z25

TEXT ·tsTileF32AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $2, CX
	MOVQ TA_LDB(DI), R15
	SHLQ $2, R15
	MOVQ TA_LDC(DI), BX
	SHLQ $2, BX
	XORQ R14, R14             // j

g32loop:
	MOVQ TA_N(DI), DX
	SUBQ R14, DX
	CMPQ DX, $48
	JLT  g32done

	MOVQ TA_MODE(DI), AX
	TESTQ AX, AX
	JNZ  g32initbias
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	JMP  g32initrows

g32initbias:
	MOVQ TA_BIAS(DI), DX
	LEAQ (DX)(R14*4), DX
	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1
	VMOVUPS 128(DX), Z2

g32initrows:
	VMOVAPS Z0, Z3
	VMOVAPS Z1, Z4
	VMOVAPS Z2, Z5
	VMOVAPS Z0, Z6
	VMOVAPS Z1, Z7
	VMOVAPS Z2, Z8
	VMOVAPS Z0, Z9
	VMOVAPS Z1, Z10
	VMOVAPS Z2, Z11
	VMOVAPS Z0, Z12
	VMOVAPS Z1, Z13
	VMOVAPS Z2, Z14
	VMOVAPS Z0, Z15
	VMOVAPS Z1, Z16
	VMOVAPS Z2, Z17
	VMOVAPS Z0, Z18
	VMOVAPS Z1, Z19
	VMOVAPS Z2, Z20
	VMOVAPS Z0, Z21
	VMOVAPS Z1, Z22
	VMOVAPS Z2, Z23

	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9               // row 3
	LEAQ (R9)(CX*2), R10
	ADDQ CX, R10              // row 6
	MOVQ TA_B(DI), R12
	LEAQ (R12)(R14*4), R12
	MOVQ TA_K(DI), R13

	TESTQ $1, R13
	JZ   g32kpairs
	G32KSTEP((R12), 64(R12), 128(R12), 0)
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ R15, R12
	DECQ R13
	JZ   g32kdone

g32kpairs:
	G32KSTEP((R12), 64(R12), 128(R12), 0)
	G32KSTEP((R12)(R15*1), 64(R12)(R15*1), 128(R12)(R15*1), 4)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	LEAQ (R12)(R15*2), R12
	SUBQ $2, R13
	JNZ  g32kpairs

g32kdone:
	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*4), SI
	CMPQ AX, $1
	JGE  g32storeplain

	// mode 0: C = alpha*acc + beta*C, alpha and beta narrowed to f32;
	// a beta that narrows to ±0 reads no C.
	VMOVSD TA_ALPHA(DI), X24
	VCVTSD2SS X24, X24, X24
	VBROADCASTSS X24, Z24
	VMULPS Z24, Z0, Z0
	VMULPS Z24, Z1, Z1
	VMULPS Z24, Z2, Z2
	VMULPS Z24, Z3, Z3
	VMULPS Z24, Z4, Z4
	VMULPS Z24, Z5, Z5
	VMULPS Z24, Z6, Z6
	VMULPS Z24, Z7, Z7
	VMULPS Z24, Z8, Z8
	VMULPS Z24, Z9, Z9
	VMULPS Z24, Z10, Z10
	VMULPS Z24, Z11, Z11
	VMULPS Z24, Z12, Z12
	VMULPS Z24, Z13, Z13
	VMULPS Z24, Z14, Z14
	VMULPS Z24, Z15, Z15
	VMULPS Z24, Z16, Z16
	VMULPS Z24, Z17, Z17
	VMULPS Z24, Z18, Z18
	VMULPS Z24, Z19, Z19
	VMULPS Z24, Z20, Z20
	VMULPS Z24, Z21, Z21
	VMULPS Z24, Z22, Z22
	VMULPS Z24, Z23, Z23
	VMOVSD TA_BETA(DI), X25
	VCVTSD2SS X25, X25, X25
	VMOVD X25, DX
	SHLL $1, DX               // drop the sign: zero iff beta is ±0
	JZ   g32storeplain
	VBROADCASTSS X25, Z25
	MOVQ SI, DX
	G32BETA3(Z0, Z1, Z2)
	G32BETA3(Z3, Z4, Z5)
	G32BETA3(Z6, Z7, Z8)
	G32BETA3(Z9, Z10, Z11)
	G32BETA3(Z12, Z13, Z14)
	G32BETA3(Z15, Z16, Z17)
	G32BETA3(Z18, Z19, Z20)
	G32BETA3(Z21, Z22, Z23)

g32storeplain:
	MOVQ SI, DX
	G32STORE3(Z0, Z1, Z2)
	G32STORE3(Z3, Z4, Z5)
	G32STORE3(Z6, Z7, Z8)
	G32STORE3(Z9, Z10, Z11)
	G32STORE3(Z12, Z13, Z14)
	G32STORE3(Z15, Z16, Z17)
	G32STORE3(Z18, Z19, Z20)
	G32STORE3(Z21, Z22, Z23)
	CMPQ AX, $2
	JL   g32next

	// Tanh modes: the raw sums are in C. Row by row, its three zmm: R8
	// walks C, R12 grad (ldg bytes in R13), R9 counts the rows.
	TANH32CONSTS
	MOVQ SI, R8
	MOVQ TA_LDG(DI), R13
	SHLQ $2, R13
	MOVQ TA_GRAD(DI), R12
	LEAQ (R12)(R14*4), R12
	MOVQ $8, R9

g32tanh:
	VMOVUPS (R8), Z0
	VMOVUPS 64(R8), Z1
	VMOVUPS 128(R8), Z2
	TANH32Z(Z0)
	TANH32Z(Z1)
	TANH32Z(Z2)
	VMOVUPS Z0, (R8)
	VMOVUPS Z1, 64(R8)
	VMOVUPS Z2, 128(R8)
	CMPQ AX, $3
	JNE  g32tanhnext
	GRAD32Z(Z0, Z11)
	VMOVUPS Z11, (R12)
	GRAD32Z(Z1, Z11)
	VMOVUPS Z11, 64(R12)
	GRAD32Z(Z2, Z11)
	VMOVUPS Z11, 128(R12)

g32tanhnext:
	ADDQ BX, R8
	ADDQ R13, R12
	DECQ R9
	JNZ  g32tanh

g32next:
	ADDQ $48, R14
	JMP  g32loop

	// One-zmm chunks: the columns past the last group.
g32done:
	TANH32CONSTS

z32jloop:
	CMPQ R14, TA_N(DI)
	JGE  z32done

	MOVQ TA_N(DI), DX
	SUBQ R14, DX
	CMPQ DX, $16
	JLE  z32masked
	MOVQ $16, DX
z32masked:
	LEAQ kmaskTab<>(SB), R11
	MOVWLZX (R11)(DX*2), R11
	KMOVW R11, K1

	MOVQ TA_MODE(DI), AX
	TESTQ AX, AX
	JNZ  z32initbias
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	JMP  z32initdone

z32initbias:
	MOVQ TA_BIAS(DI), DX
	LEAQ (DX)(R14*4), DX
	VMOVUPS.Z (DX), K1, Z0
	VMOVAPS Z0, Z1
	VMOVAPS Z0, Z2
	VMOVAPS Z0, Z3
	VMOVAPS Z0, Z4
	VMOVAPS Z0, Z5
	VMOVAPS Z0, Z6
	VMOVAPS Z0, Z7

z32initdone:
	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9
	LEAQ (R9)(CX*2), R10
	ADDQ CX, R10
	MOVQ TA_B(DI), R12
	LEAQ (R12)(R14*4), R12
	MOVQ TA_K(DI), R13

z32kloop:
	VMOVUPS.Z (R12), K1, Z8
	VFMADD231PS.BCST (R8), Z8, Z0
	VFMADD231PS.BCST (R8)(CX*1), Z8, Z1
	VFMADD231PS.BCST (R8)(CX*2), Z8, Z2
	VFMADD231PS.BCST (R9), Z8, Z3
	VFMADD231PS.BCST (R9)(CX*1), Z8, Z4
	VFMADD231PS.BCST (R9)(CX*2), Z8, Z5
	VFMADD231PS.BCST (R10), Z8, Z6
	VFMADD231PS.BCST (R10)(CX*1), Z8, Z7
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ R15, R12
	DECQ R13
	JNZ  z32kloop

	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*4), SI
	CMPQ AX, $1
	JE   z32storeplain
	JG   z32storetanh

	VMOVSD TA_ALPHA(DI), X9
	VCVTSD2SS X9, X9, X9
	VBROADCASTSS X9, Z9
	VMULPS Z9, Z0, Z0
	VMULPS Z9, Z1, Z1
	VMULPS Z9, Z2, Z2
	VMULPS Z9, Z3, Z3
	VMULPS Z9, Z4, Z4
	VMULPS Z9, Z5, Z5
	VMULPS Z9, Z6, Z6
	VMULPS Z9, Z7, Z7
	VMOVSD TA_BETA(DI), X10
	VCVTSD2SS X10, X10, X10
	VXORPS X12, X12, X12
	UCOMISS X10, X12
	JNE  z32betanz
	JP   z32betanz
	JMP  z32storeplain

z32betanz:
	VBROADCASTSS X10, Z10
	MOVQ SI, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z0
	ADDQ BX, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z1
	ADDQ BX, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z2
	ADDQ BX, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z3
	ADDQ BX, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z4
	ADDQ BX, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z5
	ADDQ BX, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z6
	ADDQ BX, DX
	VMOVUPS.Z (DX), K1, Z11
	VFMADD231PS Z11, Z10, Z7

z32storeplain:
	MOVQ SI, DX
	VMOVUPS Z0, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z1, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z2, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z3, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z4, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z5, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z6, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z7, K1, (DX)
	JMP  z32nextj

z32storetanh:
	TANH32Z(Z0)
	TANH32Z(Z1)
	TANH32Z(Z2)
	TANH32Z(Z3)
	TANH32Z(Z4)
	TANH32Z(Z5)
	TANH32Z(Z6)
	TANH32Z(Z7)
	MOVQ SI, DX
	VMOVUPS Z0, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z1, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z2, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z3, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z4, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z5, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z6, K1, (DX)
	ADDQ BX, DX
	VMOVUPS Z7, K1, (DX)
	CMPQ AX, $3
	JNE  z32nextj
	MOVQ TA_LDG(DI), R13
	SHLQ $2, R13
	MOVQ TA_GRAD(DI), R12
	LEAQ (R12)(R14*4), R12
	GRAD32Z(Z0, Z11)
	VMOVUPS Z11, K1, (R12)
	ADDQ R13, R12
	GRAD32Z(Z1, Z11)
	VMOVUPS Z11, K1, (R12)
	ADDQ R13, R12
	GRAD32Z(Z2, Z11)
	VMOVUPS Z11, K1, (R12)
	ADDQ R13, R12
	GRAD32Z(Z3, Z11)
	VMOVUPS Z11, K1, (R12)
	ADDQ R13, R12
	GRAD32Z(Z4, Z11)
	VMOVUPS Z11, K1, (R12)
	ADDQ R13, R12
	GRAD32Z(Z5, Z11)
	VMOVUPS Z11, K1, (R12)
	ADDQ R13, R12
	GRAD32Z(Z6, Z11)
	VMOVUPS Z11, K1, (R12)
	ADDQ R13, R12
	GRAD32Z(Z7, Z11)
	VMOVUPS Z11, K1, (R12)

z32nextj:
	ADDQ $16, R14
	JMP  z32jloop

z32done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// The NT dot tile on zmm: four A rows x four B rows per step, the AVX2
// tile's arithmetic carried two dot products to a register. Accumulator
// Z(4p+q) holds the AVX2 tile's lane vector of dot (A row 2p, B row q) in
// its low 256 bits and of dot (A row 2p+1, B row q) in its high 256 bits:
// the A rows of a pair load as one ymm plus an inserted ymm, the B row's
// k-chunk is broadcast to both halves, and every FMA has the AVX2 tile's
// operand order and k order. The sixteen dots then reduce in HSUM64's or
// HSUM32's tree and operand order, vectorised across accumulators
// (VSHUFF64X2 pairs the lane halves, VUNPCK*PD or VSHUFPS the rest), and
// are permuted to row-major order; the k tail, alpha and beta run as
// vector operations in the scalar epilogue's order. So every element has
// the bits the AVX2 tile gives it (TestNTQuadTileMatchesPair).

// ntPerm32<>: the VPERMPS index that puts NTRED32's output in row-major
// order (row r, column q at lane 4r+q).
DATA ntPerm32<>+0(SB)/4, $0
DATA ntPerm32<>+4(SB)/4, $1
DATA ntPerm32<>+8(SB)/4, $8
DATA ntPerm32<>+12(SB)/4, $9
DATA ntPerm32<>+16(SB)/4, $4
DATA ntPerm32<>+20(SB)/4, $5
DATA ntPerm32<>+24(SB)/4, $12
DATA ntPerm32<>+28(SB)/4, $13
DATA ntPerm32<>+32(SB)/4, $2
DATA ntPerm32<>+36(SB)/4, $3
DATA ntPerm32<>+40(SB)/4, $10
DATA ntPerm32<>+44(SB)/4, $11
DATA ntPerm32<>+48(SB)/4, $6
DATA ntPerm32<>+52(SB)/4, $7
DATA ntPerm32<>+56(SB)/4, $14
DATA ntPerm32<>+60(SB)/4, $15
GLOBL ntPerm32<>(SB), RODATA, $64

// NTRED64(A0, A1, A2, A3, OUT): the four accumulators of one A-row pair
// (B rows 0..3) to OUT = [row 2p: cols 0..3 | row 2p+1: cols 0..3].
// Per dot, (s0+s2) + (s1+s3) as HSUM64. Temps Z16-Z21.
#define NTRED64(A0, A1, A2, A3, OUT) \
	VSHUFF64X2 $0x88, A2, A0, Z16 \ // lo halves: [d0q0, d1q0, d0q2, d1q2] (s0, s1)
	VSHUFF64X2 $0xDD, A2, A0, Z17 \ // (s2, s3)
	VADDPD Z17, Z16, Z16          \ // (s0+s2, s1+s3)
	VSHUFF64X2 $0x88, A3, A1, Z18 \ // [d0q1, d1q1, d0q3, d1q3]
	VSHUFF64X2 $0xDD, A3, A1, Z19 \
	VADDPD Z19, Z18, Z18          \
	VUNPCKLPD Z18, Z16, Z20       \
	VUNPCKHPD Z18, Z16, Z21       \
	VADDPD Z21, Z20, Z20          \ // [d0q0 d0q1 | d1q0 d1q1 | d0q2 d0q3 | d1q2 d1q3]
	VSHUFF64X2 $0xD8, Z20, Z20, OUT

// ---------------------------------------------------------------------------
// func ntTileF64AVX512(args *tileArgs)
//
// C = alpha*A*B^T + beta*C for four A rows against columns [0, n), n a
// positive multiple of 4. Accumulators Z0..Z7 (pair p, B row q in Z4p+q),
// A pairs Z8/Z9, B broadcasts Z10-Z13. A rows from R8 (row 0) and R9
// (row 2) plus lda; B rows from R10 (row j) and R11 (row j+3) plus ldb.
TEXT ·ntTileF64AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $3, CX               // lda bytes
	MOVQ TA_LDB(DI), R15
	SHLQ $3, R15              // ldb bytes
	MOVQ TA_LDC(DI), BX
	SHLQ $3, BX               // ldc bytes
	XORQ R14, R14             // j

q64jloop:
	CMPQ R14, TA_N(DI)
	JGE  q64done

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*2), R9       // A row 2
	MOVQ R14, R10
	IMULQ R15, R10
	ADDQ TA_B(DI), R10        // B row j
	LEAQ (R10)(R15*2), R11
	ADDQ R15, R11             // B row j+3
	MOVQ TA_K(DI), R13
	SHRQ $2, R13              // k/4 vector chunks
	JZ   q64reduce

q64kloop:
	VMOVUPD (R8), Y8
	VINSERTF64X4 $1, (R8)(CX*1), Z8, Z8
	VMOVUPD (R9), Y9
	VINSERTF64X4 $1, (R9)(CX*1), Z9, Z9
	VBROADCASTF64X4 (R10), Z10
	VBROADCASTF64X4 (R10)(R15*1), Z11
	VBROADCASTF64X4 (R10)(R15*2), Z12
	VBROADCASTF64X4 (R11), Z13
	VFMADD231PD Z10, Z8, Z0
	VFMADD231PD Z11, Z8, Z1
	VFMADD231PD Z12, Z8, Z2
	VFMADD231PD Z13, Z8, Z3
	VFMADD231PD Z10, Z9, Z4
	VFMADD231PD Z11, Z9, Z5
	VFMADD231PD Z12, Z9, Z6
	VFMADD231PD Z13, Z9, Z7
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ R13
	JNZ  q64kloop

q64reduce:
	NTRED64(Z0, Z1, Z2, Z3, Z0) // rows 0, 1
	NTRED64(Z4, Z5, Z6, Z7, Z1) // rows 2, 3
	MOVQ TA_K(DI), R13
	ANDQ $3, R13
	JZ   q64epi

	// k tail: Z8/Z9 = A rows (0,1)/(2,3) at the tail column, each
	// broadcast over its half; Z10 = B rows j..j+3 at it, in both halves.
q64tailloop:
	VBROADCASTSD (R8), Y8
	VBROADCASTSD (R8)(CX*1), Y12
	VINSERTF64X4 $1, Y12, Z8, Z8
	VBROADCASTSD (R9), Y9
	VBROADCASTSD (R9)(CX*1), Y12
	VINSERTF64X4 $1, Y12, Z9, Z9
	VMOVSD (R10), X10
	VMOVHPD (R10)(R15*1), X10, X10
	VMOVSD (R10)(R15*2), X11
	VMOVHPD (R11), X11, X11
	VINSERTF128 $1, X11, Y10, Y10
	VINSERTF64X4 $1, Y10, Z10, Z10
	VFMADD231PD Z10, Z8, Z0
	VFMADD231PD Z10, Z9, Z1
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ R13
	JNZ  q64tailloop

q64epi:
	VBROADCASTSD TA_ALPHA(DI), Z14
	VMULPD Z14, Z0, Z0
	VMULPD Z14, Z1, Z1
	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*8), SI      // C[0, j]
	LEAQ (SI)(BX*1), DX       // C[1, j]
	VXORPS X13, X13, X13
	UCOMISD TA_BETA(DI), X13
	JNE  q64betanz
	JP   q64betanz
	VMOVUPD Y0, (SI)
	VEXTRACTF64X4 $1, Z0, (DX)
	VMOVUPD Y1, (SI)(BX*2)
	VEXTRACTF64X4 $1, Z1, (DX)(BX*2)
	JMP  q64nextj

q64betanz:
	VBROADCASTSD TA_BETA(DI), Z15
	VMOVUPD (SI), Y12
	VINSERTF64X4 $1, (DX), Z12, Z12
	VFMADD231PD Z12, Z15, Z0
	VMOVUPD (SI)(BX*2), Y13
	VINSERTF64X4 $1, (DX)(BX*2), Z13, Z13
	VFMADD231PD Z13, Z15, Z1
	VMOVUPD Y0, (SI)
	VEXTRACTF64X4 $1, Z0, (DX)
	VMOVUPD Y1, (SI)(BX*2)
	VEXTRACTF64X4 $1, Z1, (DX)(BX*2)

q64nextj:
	ADDQ $4, R14
	JMP  q64jloop

q64done:
	VZEROUPPER
	RET

// NTRED32 stage 1 for one A-row pair: v[l] = s[l] + s[l+4] for the
// pair's dots with B rows (0, 2) into LO and (1, 3) into HI, as HSUM32's
// first add. Temp Z16.
#define NTRED32PAIR(A0, A1, A2, A3, LO, HI) \
	VSHUFF64X2 $0x88, A2, A0, LO \
	VSHUFF64X2 $0xDD, A2, A0, Z16 \
	VADDPS Z16, LO, LO           \
	VSHUFF64X2 $0x88, A3, A1, HI \
	VSHUFF64X2 $0xDD, A3, A1, Z16 \
	VADDPS Z16, HI, HI

// NTRED32ROUND: one of the f32 reduction's last two rounds, the lanes
// ILO picks from X and Y plus the lanes IHI picks, ILO's first. With
// $0x44/$0xEE it forms HSUM32's v0+v2 and v1+v3, with $0x88/$0xDD their
// sum, leaving sixteen dots in ntPerm32<>'s input order. Temps Z16, Z17.
#define NTRED32ROUND(X, Y, OUT, ILO, IHI) \
	VSHUFPS ILO, Y, X, Z16 \
	VSHUFPS IHI, Y, X, Z17 \
	VADDPS Z17, Z16, OUT

// ---------------------------------------------------------------------------
// func ntTileF32AVX512(args *tileArgs)
//
// The f32 quad tile: 8-lane k chunks per half (k&^7), the rest as the f64
// tile. The reduced tile is one zmm, row r in lanes 4r..4r+3.
TEXT ·ntTileF32AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $2, CX
	MOVQ TA_LDB(DI), R15
	SHLQ $2, R15
	MOVQ TA_LDC(DI), BX
	SHLQ $2, BX
	VMOVDQU32 ntPerm32<>(SB), Z31
	XORQ R14, R14

q32jloop:
	CMPQ R14, TA_N(DI)
	JGE  q32done

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*2), R9
	MOVQ R14, R10
	IMULQ R15, R10
	ADDQ TA_B(DI), R10
	LEAQ (R10)(R15*2), R11
	ADDQ R15, R11
	MOVQ TA_K(DI), R13
	SHRQ $3, R13              // k/8 vector chunks
	JZ   q32reduce

q32kloop:
	VMOVUPS (R8), Y8
	VINSERTF64X4 $1, (R8)(CX*1), Z8, Z8
	VMOVUPS (R9), Y9
	VINSERTF64X4 $1, (R9)(CX*1), Z9, Z9
	VBROADCASTF64X4 (R10), Z10
	VBROADCASTF64X4 (R10)(R15*1), Z11
	VBROADCASTF64X4 (R10)(R15*2), Z12
	VBROADCASTF64X4 (R11), Z13
	VFMADD231PS Z10, Z8, Z0
	VFMADD231PS Z11, Z8, Z1
	VFMADD231PS Z12, Z8, Z2
	VFMADD231PS Z13, Z8, Z3
	VFMADD231PS Z10, Z9, Z4
	VFMADD231PS Z11, Z9, Z5
	VFMADD231PS Z12, Z9, Z6
	VFMADD231PS Z13, Z9, Z7
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ R13
	JNZ  q32kloop

q32reduce:
	NTRED32PAIR(Z0, Z1, Z2, Z3, Z18, Z19)
	NTRED32PAIR(Z4, Z5, Z6, Z7, Z20, Z21)
	NTRED32ROUND(Z18, Z19, Z22, $0x44, $0xEE)
	NTRED32ROUND(Z20, Z21, Z23, $0x44, $0xEE)
	NTRED32ROUND(Z22, Z23, Z24, $0x88, $0xDD)
	VPERMPS Z24, Z31, Z0
	MOVQ TA_K(DI), R13
	ANDQ $7, R13
	JZ   q32epi

	// k tail: Z8 = A rows 0..3 at the tail column, row r broadcast over
	// lanes 4r..4r+3; Z10 = B rows j..j+3 at it, in every 128-bit lane.
q32tailloop:
	VBROADCASTSS (R8), X8
	VBROADCASTSS (R8)(CX*1), X12
	VINSERTF32X4 $1, X12, Z8, Z8
	VBROADCASTSS (R9), X12
	VINSERTF32X4 $2, X12, Z8, Z8
	VBROADCASTSS (R9)(CX*1), X12
	VINSERTF32X4 $3, X12, Z8, Z8
	VMOVSS (R10), X10
	VINSERTPS $0x10, (R10)(R15*1), X10, X10
	VINSERTPS $0x20, (R10)(R15*2), X10, X10
	VINSERTPS $0x30, (R11), X10, X10
	VSHUFF32X4 $0, Z10, Z10, Z10
	VFMADD231PS Z10, Z8, Z0
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ R13
	JNZ  q32tailloop

q32epi:
	VMOVSD TA_ALPHA(DI), X14
	VCVTSD2SS X14, X14, X14
	VBROADCASTSS X14, Z14
	VMULPS Z14, Z0, Z0
	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*4), SI
	LEAQ (SI)(BX*1), DX
	VMOVSD TA_BETA(DI), X15
	VCVTSD2SS X15, X15, X15
	VXORPS X13, X13, X13
	UCOMISS X15, X13
	JNE  q32betanz
	JP   q32betanz
	VMOVUPS X0, (SI)
	VEXTRACTF32X4 $1, Z0, (DX)
	VEXTRACTF32X4 $2, Z0, (SI)(BX*2)
	VEXTRACTF32X4 $3, Z0, (DX)(BX*2)
	JMP  q32nextj

q32betanz:
	VBROADCASTSS X15, Z15
	VMOVUPS (SI), X12
	VINSERTF32X4 $1, (DX), Z12, Z12
	VINSERTF32X4 $2, (SI)(BX*2), Z12, Z12
	VINSERTF32X4 $3, (DX)(BX*2), Z12, Z12
	VFMADD231PS Z12, Z15, Z0
	VMOVUPS X0, (SI)
	VEXTRACTF32X4 $1, Z0, (DX)
	VEXTRACTF32X4 $2, Z0, (SI)(BX*2)
	VEXTRACTF32X4 $3, Z0, (DX)(BX*2)

q32nextj:
	ADDQ $4, R14
	JMP  q32jloop

q32done:
	VZEROUPPER
	RET

//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA kernels for the tall-skinny GEMM family (see simd.go for the
// driver contract and simd_amd64.go for tile geometry). tileArgs field
// offsets — asserted against the Go struct by TestTileArgsLayout:

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

// ---------------------------------------------------------------------------
// Constant tables. Every entry is replicated to a full 256-bit lane group so
// AVX2 instructions can use it as a direct m256 operand; the AVX-512 kernels
// read the first 8 (4) bytes of the same entries via EVEX embedded
// broadcast. Generated from the constants in tanh_approx.go / tanh.go.

// float64 tanh: bound, log2e, ln2hi, ln2lo, 13 Horner coefficients
// (c12..c0 of q(r) = sum r^i/(i+1)!), 2.0, |x| mask, sign mask, exponent
// bias. TC64_ONE aliases poly c0 = 1.0.
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

DATA tanhC64<>+0(SB)/8, $0x4034000000000000
DATA tanhC64<>+8(SB)/8, $0x4034000000000000
DATA tanhC64<>+16(SB)/8, $0x4034000000000000
DATA tanhC64<>+24(SB)/8, $0x4034000000000000
DATA tanhC64<>+32(SB)/8, $0x3ff71547652b82fe
DATA tanhC64<>+40(SB)/8, $0x3ff71547652b82fe
DATA tanhC64<>+48(SB)/8, $0x3ff71547652b82fe
DATA tanhC64<>+56(SB)/8, $0x3ff71547652b82fe
DATA tanhC64<>+64(SB)/8, $0x3fe62e42fee00000
DATA tanhC64<>+72(SB)/8, $0x3fe62e42fee00000
DATA tanhC64<>+80(SB)/8, $0x3fe62e42fee00000
DATA tanhC64<>+88(SB)/8, $0x3fe62e42fee00000
DATA tanhC64<>+96(SB)/8, $0x3dea39ef35793c76
DATA tanhC64<>+104(SB)/8, $0x3dea39ef35793c76
DATA tanhC64<>+112(SB)/8, $0x3dea39ef35793c76
DATA tanhC64<>+120(SB)/8, $0x3dea39ef35793c76
DATA tanhC64<>+128(SB)/8, $0x3de6124613a86d09
DATA tanhC64<>+136(SB)/8, $0x3de6124613a86d09
DATA tanhC64<>+144(SB)/8, $0x3de6124613a86d09
DATA tanhC64<>+152(SB)/8, $0x3de6124613a86d09
DATA tanhC64<>+160(SB)/8, $0x3e21eed8eff8d898
DATA tanhC64<>+168(SB)/8, $0x3e21eed8eff8d898
DATA tanhC64<>+176(SB)/8, $0x3e21eed8eff8d898
DATA tanhC64<>+184(SB)/8, $0x3e21eed8eff8d898
DATA tanhC64<>+192(SB)/8, $0x3e5ae64567f544e4
DATA tanhC64<>+200(SB)/8, $0x3e5ae64567f544e4
DATA tanhC64<>+208(SB)/8, $0x3e5ae64567f544e4
DATA tanhC64<>+216(SB)/8, $0x3e5ae64567f544e4
DATA tanhC64<>+224(SB)/8, $0x3e927e4fb7789f5c
DATA tanhC64<>+232(SB)/8, $0x3e927e4fb7789f5c
DATA tanhC64<>+240(SB)/8, $0x3e927e4fb7789f5c
DATA tanhC64<>+248(SB)/8, $0x3e927e4fb7789f5c
DATA tanhC64<>+256(SB)/8, $0x3ec71de3a556c734
DATA tanhC64<>+264(SB)/8, $0x3ec71de3a556c734
DATA tanhC64<>+272(SB)/8, $0x3ec71de3a556c734
DATA tanhC64<>+280(SB)/8, $0x3ec71de3a556c734
DATA tanhC64<>+288(SB)/8, $0x3efa01a01a01a01a
DATA tanhC64<>+296(SB)/8, $0x3efa01a01a01a01a
DATA tanhC64<>+304(SB)/8, $0x3efa01a01a01a01a
DATA tanhC64<>+312(SB)/8, $0x3efa01a01a01a01a
DATA tanhC64<>+320(SB)/8, $0x3f2a01a01a01a01a
DATA tanhC64<>+328(SB)/8, $0x3f2a01a01a01a01a
DATA tanhC64<>+336(SB)/8, $0x3f2a01a01a01a01a
DATA tanhC64<>+344(SB)/8, $0x3f2a01a01a01a01a
DATA tanhC64<>+352(SB)/8, $0x3f56c16c16c16c17
DATA tanhC64<>+360(SB)/8, $0x3f56c16c16c16c17
DATA tanhC64<>+368(SB)/8, $0x3f56c16c16c16c17
DATA tanhC64<>+376(SB)/8, $0x3f56c16c16c16c17
DATA tanhC64<>+384(SB)/8, $0x3f81111111111111
DATA tanhC64<>+392(SB)/8, $0x3f81111111111111
DATA tanhC64<>+400(SB)/8, $0x3f81111111111111
DATA tanhC64<>+408(SB)/8, $0x3f81111111111111
DATA tanhC64<>+416(SB)/8, $0x3fa5555555555555
DATA tanhC64<>+424(SB)/8, $0x3fa5555555555555
DATA tanhC64<>+432(SB)/8, $0x3fa5555555555555
DATA tanhC64<>+440(SB)/8, $0x3fa5555555555555
DATA tanhC64<>+448(SB)/8, $0x3fc5555555555555
DATA tanhC64<>+456(SB)/8, $0x3fc5555555555555
DATA tanhC64<>+464(SB)/8, $0x3fc5555555555555
DATA tanhC64<>+472(SB)/8, $0x3fc5555555555555
DATA tanhC64<>+480(SB)/8, $0x3fe0000000000000
DATA tanhC64<>+488(SB)/8, $0x3fe0000000000000
DATA tanhC64<>+496(SB)/8, $0x3fe0000000000000
DATA tanhC64<>+504(SB)/8, $0x3fe0000000000000
DATA tanhC64<>+512(SB)/8, $0x3ff0000000000000
DATA tanhC64<>+520(SB)/8, $0x3ff0000000000000
DATA tanhC64<>+528(SB)/8, $0x3ff0000000000000
DATA tanhC64<>+536(SB)/8, $0x3ff0000000000000
DATA tanhC64<>+544(SB)/8, $0x4000000000000000
DATA tanhC64<>+552(SB)/8, $0x4000000000000000
DATA tanhC64<>+560(SB)/8, $0x4000000000000000
DATA tanhC64<>+568(SB)/8, $0x4000000000000000
DATA tanhC64<>+576(SB)/8, $0x7fffffffffffffff
DATA tanhC64<>+584(SB)/8, $0x7fffffffffffffff
DATA tanhC64<>+592(SB)/8, $0x7fffffffffffffff
DATA tanhC64<>+600(SB)/8, $0x7fffffffffffffff
DATA tanhC64<>+608(SB)/8, $0x8000000000000000
DATA tanhC64<>+616(SB)/8, $0x8000000000000000
DATA tanhC64<>+624(SB)/8, $0x8000000000000000
DATA tanhC64<>+632(SB)/8, $0x8000000000000000
DATA tanhC64<>+640(SB)/8, $1023
DATA tanhC64<>+648(SB)/8, $1023
DATA tanhC64<>+656(SB)/8, $1023
DATA tanhC64<>+664(SB)/8, $1023
GLOBL tanhC64<>(SB), RODATA, $672

// float32 tanh (the Pade(6,6) of tanhf, same association): 135135, 17325,
// 378, 62370, 3150, 28, 1, -1, 4.97, -4.97.
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

DATA tanhC32<>+0(SB)/8, $0x4803f7c04803f7c0
DATA tanhC32<>+8(SB)/8, $0x4803f7c04803f7c0
DATA tanhC32<>+16(SB)/8, $0x4803f7c04803f7c0
DATA tanhC32<>+24(SB)/8, $0x4803f7c04803f7c0
DATA tanhC32<>+32(SB)/8, $0x46875a0046875a00
DATA tanhC32<>+40(SB)/8, $0x46875a0046875a00
DATA tanhC32<>+48(SB)/8, $0x46875a0046875a00
DATA tanhC32<>+56(SB)/8, $0x46875a0046875a00
DATA tanhC32<>+64(SB)/8, $0x43bd000043bd0000
DATA tanhC32<>+72(SB)/8, $0x43bd000043bd0000
DATA tanhC32<>+80(SB)/8, $0x43bd000043bd0000
DATA tanhC32<>+88(SB)/8, $0x43bd000043bd0000
DATA tanhC32<>+96(SB)/8, $0x4773a2004773a200
DATA tanhC32<>+104(SB)/8, $0x4773a2004773a200
DATA tanhC32<>+112(SB)/8, $0x4773a2004773a200
DATA tanhC32<>+120(SB)/8, $0x4773a2004773a200
DATA tanhC32<>+128(SB)/8, $0x4544e0004544e000
DATA tanhC32<>+136(SB)/8, $0x4544e0004544e000
DATA tanhC32<>+144(SB)/8, $0x4544e0004544e000
DATA tanhC32<>+152(SB)/8, $0x4544e0004544e000
DATA tanhC32<>+160(SB)/8, $0x41e0000041e00000
DATA tanhC32<>+168(SB)/8, $0x41e0000041e00000
DATA tanhC32<>+176(SB)/8, $0x41e0000041e00000
DATA tanhC32<>+184(SB)/8, $0x41e0000041e00000
DATA tanhC32<>+192(SB)/8, $0x3f8000003f800000
DATA tanhC32<>+200(SB)/8, $0x3f8000003f800000
DATA tanhC32<>+208(SB)/8, $0x3f8000003f800000
DATA tanhC32<>+216(SB)/8, $0x3f8000003f800000
DATA tanhC32<>+224(SB)/8, $0xbf800000bf800000
DATA tanhC32<>+232(SB)/8, $0xbf800000bf800000
DATA tanhC32<>+240(SB)/8, $0xbf800000bf800000
DATA tanhC32<>+248(SB)/8, $0xbf800000bf800000
DATA tanhC32<>+256(SB)/8, $0x409f0a3d409f0a3d
DATA tanhC32<>+264(SB)/8, $0x409f0a3d409f0a3d
DATA tanhC32<>+272(SB)/8, $0x409f0a3d409f0a3d
DATA tanhC32<>+280(SB)/8, $0x409f0a3d409f0a3d
DATA tanhC32<>+288(SB)/8, $0xc09f0a3dc09f0a3d
DATA tanhC32<>+296(SB)/8, $0xc09f0a3dc09f0a3d
DATA tanhC32<>+304(SB)/8, $0xc09f0a3dc09f0a3d
DATA tanhC32<>+312(SB)/8, $0xc09f0a3dc09f0a3d
GLOBL tanhC32<>(SB), RODATA, $320

// TANH64 transforms ACC = x into tanh(x) in place (see tanh_approx.go for
// the math and the exact-model contract). Temps: Y11-Y15.
#define TANH64(ACC) \
	VANDPD tanhC64<>+TC64_ABS(SB), ACC, Y11   \ // ax = |x|
	VMINPD tanhC64<>+TC64_BOUND(SB), Y11, Y11 \ // t = ax < 20 ? ax : 20 (NaN -> 20)
	VADDPD Y11, Y11, Y11                      \ // z = 2t
	VMULPD tanhC64<>+TC64_LOG2E(SB), Y11, Y12 \
	VROUNDPD $0, Y12, Y12                     \ // n = roundeven(z*log2e)
	VMOVAPD Y11, Y13                          \
	VFNMADD231PD tanhC64<>+TC64_LN2HI(SB), Y12, Y13 \ // r = z - n*ln2hi
	VFNMADD231PD tanhC64<>+TC64_LN2LO(SB), Y12, Y13 \ // r -= n*ln2lo
	VMOVUPD tanhC64<>+TC64_POLY(SB), Y14      \ // q = c12
	VFMADD213PD tanhC64<>+TC64_POLY+32(SB), Y13, Y14 \ // q = q*r + c11
	VFMADD213PD tanhC64<>+TC64_POLY+64(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+96(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+128(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+160(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+192(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+224(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+256(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+288(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+320(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+352(SB), Y13, Y14 \
	VFMADD213PD tanhC64<>+TC64_POLY+384(SB), Y13, Y14 \ // q = ... + c0
	VMULPD Y13, Y14, Y14                      \ // p = r*q = e^r - 1
	VCVTTPD2DQY Y12, X12                       \
	VPMOVSXDQ X12, Y12                        \
	VPADDQ tanhC64<>+TC64_BIAS(SB), Y12, Y12  \
	VPSLLQ $52, Y12, Y12                      \ // s = 2^n
	VSUBPD tanhC64<>+TC64_ONE(SB), Y12, Y15   \ // s - 1
	VFMADD231PD Y14, Y12, Y15                 \ // em1 = s*p + (s-1)
	VADDPD tanhC64<>+TC64_TWO(SB), Y15, Y14   \
	VDIVPD Y14, Y15, Y15                      \ // y = em1/(em1+2)
	VANDPD tanhC64<>+TC64_SIGN(SB), ACC, Y11  \
	VORPD Y11, Y15, Y15                       \ // copysign(y, x)
	VCMPPD $3, ACC, ACC, Y11                  \ // unordered: NaN lanes
	VBLENDVPD Y11, ACC, Y15, ACC              // NaN ? x : y

// GRAD64 computes OUT = 1 - ACC*ACC (single-rounded) with ACC = y.
#define GRAD64(ACC, OUT) \
	VMOVAPD ACC, OUT \
	VFNMADD213PD tanhC64<>+TC64_ONE(SB), ACC, OUT

// TANH32 transforms ACC = x into tanhf(x) in place, bit-identical to the
// scalar tanhf (mul/add only, y-clamps before x-clamps so NaN propagates
// and the saturated tail overrides the overflowed rational). Temps:
// Y11-Y13.
#define TANH32(ACC) \
	VMULPS ACC, ACC, Y11                      \ // x2
	VADDPS tanhC32<>+TC32_P2(SB), Y11, Y12    \ // 378 + x2
	VMULPS Y11, Y12, Y12                      \
	VADDPS tanhC32<>+TC32_P1(SB), Y12, Y12    \ // 17325 + ...
	VMULPS Y11, Y12, Y12                      \
	VADDPS tanhC32<>+TC32_P0(SB), Y12, Y12    \ // 135135 + ...
	VMULPS ACC, Y12, Y12                      \ // p = x * (...)
	VMULPS tanhC32<>+TC32_Q3(SB), Y11, Y13    \ // x2*28
	VADDPS tanhC32<>+TC32_Q2(SB), Y13, Y13    \
	VMULPS Y11, Y13, Y13                      \
	VADDPS tanhC32<>+TC32_Q1(SB), Y13, Y13    \
	VMULPS Y11, Y13, Y13                      \
	VADDPS tanhC32<>+TC32_P0(SB), Y13, Y13    \ // q
	VDIVPS Y13, Y12, Y12                      \ // y = p/q
	VCMPPS $0x1e, tanhC32<>+TC32_ONE(SB), Y12, Y11 \ // y > 1 (GT_OQ)
	VBLENDVPS Y11, tanhC32<>+TC32_ONE(SB), Y12, Y12 \
	VCMPPS $0x11, tanhC32<>+TC32_NEG1(SB), Y12, Y11 \ // y < -1 (LT_OQ)
	VBLENDVPS Y11, tanhC32<>+TC32_NEG1(SB), Y12, Y12 \
	VCMPPS $0x1e, tanhC32<>+TC32_CLAMP(SB), ACC, Y11 \ // x > 4.97
	VBLENDVPS Y11, tanhC32<>+TC32_ONE(SB), Y12, Y12 \
	VCMPPS $0x11, tanhC32<>+TC32_NEGCLAMP(SB), ACC, Y11 \ // x < -4.97
	VBLENDVPS Y11, tanhC32<>+TC32_NEG1(SB), Y12, Y12 \
	VMOVAPS Y12, ACC

// GRAD32 computes OUT = 1 - ACC*ACC (single-rounded FNMADD).
#define GRAD32(ACC, OUT) \
	VMOVAPS ACC, OUT \
	VFNMADD213PS tanhC32<>+TC32_ONE(SB), ACC, OUT

// ---------------------------------------------------------------------------
// func tsTileF64AVX2(args *tileArgs)
//
// One 4-row strip: C[0:4, 0:n] over a full K loop, epilogue fused into the
// store. n is a positive multiple of 8. Accumulators Y0..Y7 (row r in
// Y2r, Y2r+1), B chunk Y8/Y9, broadcast Y10.
TEXT ·tsTileF64AVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $3, CX               // lda bytes
	MOVQ TA_LDB(DI), R15
	SHLQ $3, R15              // ldb bytes
	MOVQ TA_LDC(DI), BX
	SHLQ $3, BX               // ldc bytes
	XORQ R14, R14             // j

f64jloop:
	CMPQ R14, TA_N(DI)
	JGE  f64done

	// Accumulator init: zero (mode 0) or the bias row (modes 1-3).
	MOVQ TA_MODE(DI), AX
	TESTQ AX, AX
	JNZ  f64initbias
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP  f64initdone

f64initbias:
	MOVQ TA_BIAS(DI), DX
	LEAQ (DX)(R14*8), DX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7

f64initdone:
	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	MOVQ TA_B(DI), R12
	LEAQ (R12)(R14*8), R12
	MOVQ TA_K(DI), R13

f64kloop:
	VMOVUPD (R12), Y8
	VMOVUPD 32(R12), Y9
	VBROADCASTSD (R8), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (R9), Y10
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y9, Y10, Y3
	VBROADCASTSD (R10), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VBROADCASTSD (R11), Y10
	VFMADD231PD Y8, Y10, Y6
	VFMADD231PD Y9, Y10, Y7
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ R15, R12
	DECQ R13
	JNZ  f64kloop

	// Epilogue. SI = &C[0, j].
	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*8), SI
	CMPQ AX, $1
	JE   f64storeplain
	JG   f64storetanh

	// mode 0: C = alpha*acc + beta*C.
	VBROADCASTSD TA_ALPHA(DI), Y10
	VMULPD Y10, Y0, Y0
	VMULPD Y10, Y1, Y1
	VMULPD Y10, Y2, Y2
	VMULPD Y10, Y3, Y3
	VMULPD Y10, Y4, Y4
	VMULPD Y10, Y5, Y5
	VMULPD Y10, Y6, Y6
	VMULPD Y10, Y7, Y7
	VXORPS X12, X12, X12
	UCOMISD TA_BETA(DI), X12
	JNE  f64betanz
	JP   f64betanz            // NaN beta still merges C
	// beta == 0: plain stores.
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	LEAQ (SI)(BX*1), DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ BX, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ BX, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	JMP  f64nextj

f64betanz:
	VBROADCASTSD TA_BETA(DI), Y11
	VMOVUPD (SI), Y12
	VFMADD231PD Y12, Y11, Y0
	VMOVUPD 32(SI), Y12
	VFMADD231PD Y12, Y11, Y1
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	LEAQ (SI)(BX*1), DX
	VMOVUPD (DX), Y12
	VFMADD231PD Y12, Y11, Y2
	VMOVUPD 32(DX), Y12
	VFMADD231PD Y12, Y11, Y3
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ BX, DX
	VMOVUPD (DX), Y12
	VFMADD231PD Y12, Y11, Y4
	VMOVUPD 32(DX), Y12
	VFMADD231PD Y12, Y11, Y5
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ BX, DX
	VMOVUPD (DX), Y12
	VFMADD231PD Y12, Y11, Y6
	VMOVUPD 32(DX), Y12
	VFMADD231PD Y12, Y11, Y7
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	JMP  f64nextj

f64storeplain:
	// mode 1: C = acc (bias already seeded).
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	LEAQ (SI)(BX*1), DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ BX, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ BX, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	JMP  f64nextj

f64storetanh:
	// modes 2/3: C = tanh(acc), optionally grad = 1 - C*C.
	TANH64(Y0)
	TANH64(Y1)
	TANH64(Y2)
	TANH64(Y3)
	TANH64(Y4)
	TANH64(Y5)
	TANH64(Y6)
	TANH64(Y7)
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	LEAQ (SI)(BX*1), DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ BX, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ BX, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	CMPQ AX, $3
	JNE  f64nextj
	MOVQ TA_LDG(DI), R13
	SHLQ $3, R13
	MOVQ TA_GRAD(DI), R12
	LEAQ (R12)(R14*8), R12
	GRAD64(Y0, Y12)
	VMOVUPD Y12, (R12)
	GRAD64(Y1, Y12)
	VMOVUPD Y12, 32(R12)
	ADDQ R13, R12
	GRAD64(Y2, Y12)
	VMOVUPD Y12, (R12)
	GRAD64(Y3, Y12)
	VMOVUPD Y12, 32(R12)
	ADDQ R13, R12
	GRAD64(Y4, Y12)
	VMOVUPD Y12, (R12)
	GRAD64(Y5, Y12)
	VMOVUPD Y12, 32(R12)
	ADDQ R13, R12
	GRAD64(Y6, Y12)
	VMOVUPD Y12, (R12)
	GRAD64(Y7, Y12)
	VMOVUPD Y12, 32(R12)

f64nextj:
	ADDQ $8, R14
	JMP  f64jloop

f64done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// func tsTileF32AVX2(args *tileArgs)
//
// One 8-row strip: C[0:8, 0:n], n a positive multiple of 8. One ymm
// accumulator per row (Y0..Y7), B chunk Y8, broadcast Y9. Row addresses
// come from three advancing bases (R8 = row 0, R9 = row 3, R10 = row 6)
// plus lda-scaled offsets.
TEXT ·tsTileF32AVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $2, CX               // lda bytes
	MOVQ TA_LDB(DI), R15
	SHLQ $2, R15              // ldb bytes
	MOVQ TA_LDC(DI), BX
	SHLQ $2, BX               // ldc bytes
	XORQ R14, R14             // j

f32jloop:
	CMPQ R14, TA_N(DI)
	JGE  f32done

	MOVQ TA_MODE(DI), AX
	TESTQ AX, AX
	JNZ  f32initbias
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP  f32initdone

f32initbias:
	MOVQ TA_BIAS(DI), DX
	LEAQ (DX)(R14*4), DX
	VMOVUPS (DX), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y0, Y7

f32initdone:
	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9               // row 3
	LEAQ (R9)(CX*2), R10
	ADDQ CX, R10              // row 6
	MOVQ TA_B(DI), R12
	LEAQ (R12)(R14*4), R12
	MOVQ TA_K(DI), R13

f32kloop:
	VMOVUPS (R12), Y8
	VBROADCASTSS (R8), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS (R8)(CX*1), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS (R8)(CX*2), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS (R9), Y9
	VFMADD231PS Y8, Y9, Y3
	VBROADCASTSS (R9)(CX*1), Y9
	VFMADD231PS Y8, Y9, Y4
	VBROADCASTSS (R9)(CX*2), Y9
	VFMADD231PS Y8, Y9, Y5
	VBROADCASTSS (R10), Y9
	VFMADD231PS Y8, Y9, Y6
	VBROADCASTSS (R10)(CX*1), Y9
	VFMADD231PS Y8, Y9, Y7
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ R15, R12
	DECQ R13
	JNZ  f32kloop

	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*4), SI
	CMPQ AX, $1
	JE   f32storeplain
	JG   f32storetanh

	// mode 0: C = alpha*acc + beta*C (alpha/beta narrowed from float64).
	VMOVSD TA_ALPHA(DI), X10
	VCVTSD2SS X10, X10, X10
	VBROADCASTSS X10, Y10
	VMULPS Y10, Y0, Y0
	VMULPS Y10, Y1, Y1
	VMULPS Y10, Y2, Y2
	VMULPS Y10, Y3, Y3
	VMULPS Y10, Y4, Y4
	VMULPS Y10, Y5, Y5
	VMULPS Y10, Y6, Y6
	VMULPS Y10, Y7, Y7
	VMOVSD TA_BETA(DI), X11
	VCVTSD2SS X11, X11, X11
	VXORPS X12, X12, X12
	UCOMISS X11, X12
	JNE  f32betanz
	JP   f32betanz
	MOVQ SI, DX
	VMOVUPS Y0, (DX)
	ADDQ BX, DX
	VMOVUPS Y1, (DX)
	ADDQ BX, DX
	VMOVUPS Y2, (DX)
	ADDQ BX, DX
	VMOVUPS Y3, (DX)
	ADDQ BX, DX
	VMOVUPS Y4, (DX)
	ADDQ BX, DX
	VMOVUPS Y5, (DX)
	ADDQ BX, DX
	VMOVUPS Y6, (DX)
	ADDQ BX, DX
	VMOVUPS Y7, (DX)
	JMP  f32nextj

f32betanz:
	VBROADCASTSS X11, Y11
	MOVQ SI, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y0
	VMOVUPS Y0, (DX)
	ADDQ BX, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y1
	VMOVUPS Y1, (DX)
	ADDQ BX, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y2
	VMOVUPS Y2, (DX)
	ADDQ BX, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y3
	VMOVUPS Y3, (DX)
	ADDQ BX, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y4
	VMOVUPS Y4, (DX)
	ADDQ BX, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y5
	VMOVUPS Y5, (DX)
	ADDQ BX, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y6
	VMOVUPS Y6, (DX)
	ADDQ BX, DX
	VMOVUPS (DX), Y12
	VFMADD231PS Y12, Y11, Y7
	VMOVUPS Y7, (DX)
	JMP  f32nextj

f32storeplain:
	MOVQ SI, DX
	VMOVUPS Y0, (DX)
	ADDQ BX, DX
	VMOVUPS Y1, (DX)
	ADDQ BX, DX
	VMOVUPS Y2, (DX)
	ADDQ BX, DX
	VMOVUPS Y3, (DX)
	ADDQ BX, DX
	VMOVUPS Y4, (DX)
	ADDQ BX, DX
	VMOVUPS Y5, (DX)
	ADDQ BX, DX
	VMOVUPS Y6, (DX)
	ADDQ BX, DX
	VMOVUPS Y7, (DX)
	JMP  f32nextj

f32storetanh:
	TANH32(Y0)
	TANH32(Y1)
	TANH32(Y2)
	TANH32(Y3)
	TANH32(Y4)
	TANH32(Y5)
	TANH32(Y6)
	TANH32(Y7)
	MOVQ SI, DX
	VMOVUPS Y0, (DX)
	ADDQ BX, DX
	VMOVUPS Y1, (DX)
	ADDQ BX, DX
	VMOVUPS Y2, (DX)
	ADDQ BX, DX
	VMOVUPS Y3, (DX)
	ADDQ BX, DX
	VMOVUPS Y4, (DX)
	ADDQ BX, DX
	VMOVUPS Y5, (DX)
	ADDQ BX, DX
	VMOVUPS Y6, (DX)
	ADDQ BX, DX
	VMOVUPS Y7, (DX)
	CMPQ AX, $3
	JNE  f32nextj
	MOVQ TA_LDG(DI), R13
	SHLQ $2, R13
	MOVQ TA_GRAD(DI), R12
	LEAQ (R12)(R14*4), R12
	GRAD32(Y0, Y12)
	VMOVUPS Y12, (R12)
	ADDQ R13, R12
	GRAD32(Y1, Y12)
	VMOVUPS Y12, (R12)
	ADDQ R13, R12
	GRAD32(Y2, Y12)
	VMOVUPS Y12, (R12)
	ADDQ R13, R12
	GRAD32(Y3, Y12)
	VMOVUPS Y12, (R12)
	ADDQ R13, R12
	GRAD32(Y4, Y12)
	VMOVUPS Y12, (R12)
	ADDQ R13, R12
	GRAD32(Y5, Y12)
	VMOVUPS Y12, (R12)
	ADDQ R13, R12
	GRAD32(Y6, Y12)
	VMOVUPS Y12, (R12)
	ADDQ R13, R12
	GRAD32(Y7, Y12)
	VMOVUPS Y12, (R12)

f32nextj:
	ADDQ $8, R14
	JMP  f32jloop

f32done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// HSUM64 reduces the four f64 lanes of ACC into lane 0, in the order the
// scalar model uses: (s0+s2) + (s1+s3). XACC names ACC's xmm alias.
#define HSUM64(ACC, XACC) \
	VEXTRACTF128 $1, ACC, X14 \
	VADDPD X14, XACC, XACC    \ // [s0+s2, s1+s3]
	VHADDPD XACC, XACC, XACC

// HSUM32 reduces the eight f32 lanes of ACC into lane 0:
// v[l] = s[l]+s[l+4], then (v0+v2) + (v1+v3).
#define HSUM32(ACC, XACC) \
	VEXTRACTF128 $1, ACC, X14 \
	VADDPS X14, XACC, XACC    \ // [v0, v1, v2, v3]
	VPERMILPS $0x4e, XACC, X14 \ // [v2, v3, v0, v1]
	VADDPS X14, XACC, XACC    \ // [v0+v2, v1+v3, ...]
	VMOVSHDUP XACC, X14       \ // [v1+v3, ...]
	VADDSS X14, XACC, XACC

// ---------------------------------------------------------------------------
// func ntTileF64AVX2(args *tileArgs)
//
// C = alpha*A*B^T + beta*C for one pair of A rows against columns
// [0, n), n a positive multiple of 4 (B rows j..j+3 per step). Eight dot
// products live as 4-lane accumulators Y0..Y7 (row r, col q in Y4r+q);
// lanes reduce in the scalar-model order, then the k tail and alpha/beta
// run in scalar lanes.
TEXT ·ntTileF64AVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $3, CX               // lda bytes
	MOVQ TA_LDB(DI), R15
	SHLQ $3, R15              // ldb bytes
	MOVQ TA_LDC(DI), BX
	SHLQ $3, BX               // ldc bytes
	XORQ R14, R14             // j

nt64jloop:
	CMPQ R14, TA_N(DI)
	JGE  nt64done

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*1), R9       // A row 1
	MOVQ R14, R10
	IMULQ R15, R10
	ADDQ TA_B(DI), R10        // B row j
	LEAQ (R10)(R15*2), R11
	ADDQ R15, R11             // B row j+3
	MOVQ TA_K(DI), R13
	SHRQ $2, R13              // k/4 vector chunks
	JZ   nt64ktail

nt64kloop:
	VMOVUPD (R8), Y8
	VMOVUPD (R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD (R10)(R15*1), Y11
	VMOVUPD (R10)(R15*2), Y12
	VMOVUPD (R11), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ R13
	JNZ  nt64kloop

nt64ktail:
	HSUM64(Y0, X0)
	HSUM64(Y1, X1)
	HSUM64(Y2, X2)
	HSUM64(Y3, X3)
	HSUM64(Y4, X4)
	HSUM64(Y5, X5)
	HSUM64(Y6, X6)
	HSUM64(Y7, X7)
	MOVQ TA_K(DI), R13
	ANDQ $3, R13
	JZ   nt64epi

nt64tailloop:
	VMOVSD (R8), X8
	VMOVSD (R9), X9
	VMOVSD (R10), X10
	VMOVSD (R10)(R15*1), X11
	VMOVSD (R10)(R15*2), X12
	VMOVSD (R11), X13
	VFMADD231SD X10, X8, X0
	VFMADD231SD X11, X8, X1
	VFMADD231SD X12, X8, X2
	VFMADD231SD X13, X8, X3
	VFMADD231SD X10, X9, X4
	VFMADD231SD X11, X9, X5
	VFMADD231SD X12, X9, X6
	VFMADD231SD X13, X9, X7
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ R13
	JNZ  nt64tailloop

nt64epi:
	VMOVSD TA_ALPHA(DI), X14
	VMULSD X14, X0, X0
	VMULSD X14, X1, X1
	VMULSD X14, X2, X2
	VMULSD X14, X3, X3
	VMULSD X14, X4, X4
	VMULSD X14, X5, X5
	VMULSD X14, X6, X6
	VMULSD X14, X7, X7
	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*8), SI      // C[0, j]
	LEAQ (SI)(BX*1), DX       // C[1, j]
	VXORPS X13, X13, X13
	UCOMISD TA_BETA(DI), X13
	JNE  nt64betanz
	JP   nt64betanz
	VMOVSD X0, (SI)
	VMOVSD X1, 8(SI)
	VMOVSD X2, 16(SI)
	VMOVSD X3, 24(SI)
	VMOVSD X4, (DX)
	VMOVSD X5, 8(DX)
	VMOVSD X6, 16(DX)
	VMOVSD X7, 24(DX)
	JMP  nt64nextj

nt64betanz:
	VMOVSD TA_BETA(DI), X15
	VMOVSD (SI), X13
	VFMADD231SD X13, X15, X0
	VMOVSD X0, (SI)
	VMOVSD 8(SI), X13
	VFMADD231SD X13, X15, X1
	VMOVSD X1, 8(SI)
	VMOVSD 16(SI), X13
	VFMADD231SD X13, X15, X2
	VMOVSD X2, 16(SI)
	VMOVSD 24(SI), X13
	VFMADD231SD X13, X15, X3
	VMOVSD X3, 24(SI)
	VMOVSD (DX), X13
	VFMADD231SD X13, X15, X4
	VMOVSD X4, (DX)
	VMOVSD 8(DX), X13
	VFMADD231SD X13, X15, X5
	VMOVSD X5, 8(DX)
	VMOVSD 16(DX), X13
	VFMADD231SD X13, X15, X6
	VMOVSD X6, 16(DX)
	VMOVSD 24(DX), X13
	VFMADD231SD X13, X15, X7
	VMOVSD X7, 24(DX)

nt64nextj:
	ADDQ $4, R14
	JMP  nt64jloop

nt64done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// func ntTileF32AVX2(args *tileArgs)
//
// Same dot tile for float32: 8-lane k chunks (k&^7), scalar-FMA k tail.
TEXT ·ntTileF32AVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ TA_LDA(DI), CX
	SHLQ $2, CX
	MOVQ TA_LDB(DI), R15
	SHLQ $2, R15
	MOVQ TA_LDC(DI), BX
	SHLQ $2, BX
	XORQ R14, R14

nt32jloop:
	CMPQ R14, TA_N(DI)
	JGE  nt32done

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ TA_A(DI), R8
	LEAQ (R8)(CX*1), R9
	MOVQ R14, R10
	IMULQ R15, R10
	ADDQ TA_B(DI), R10
	LEAQ (R10)(R15*2), R11
	ADDQ R15, R11
	MOVQ TA_K(DI), R13
	SHRQ $3, R13              // k/8 vector chunks
	JZ   nt32ktail

nt32kloop:
	VMOVUPS (R8), Y8
	VMOVUPS (R9), Y9
	VMOVUPS (R10), Y10
	VMOVUPS (R10)(R15*1), Y11
	VMOVUPS (R10)(R15*2), Y12
	VMOVUPS (R11), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ R13
	JNZ  nt32kloop

nt32ktail:
	HSUM32(Y0, X0)
	HSUM32(Y1, X1)
	HSUM32(Y2, X2)
	HSUM32(Y3, X3)
	HSUM32(Y4, X4)
	HSUM32(Y5, X5)
	HSUM32(Y6, X6)
	HSUM32(Y7, X7)
	MOVQ TA_K(DI), R13
	ANDQ $7, R13
	JZ   nt32epi

nt32tailloop:
	VMOVSS (R8), X8
	VMOVSS (R9), X9
	VMOVSS (R10), X10
	VMOVSS (R10)(R15*1), X11
	VMOVSS (R10)(R15*2), X12
	VMOVSS (R11), X13
	VFMADD231SS X10, X8, X0
	VFMADD231SS X11, X8, X1
	VFMADD231SS X12, X8, X2
	VFMADD231SS X13, X8, X3
	VFMADD231SS X10, X9, X4
	VFMADD231SS X11, X9, X5
	VFMADD231SS X12, X9, X6
	VFMADD231SS X13, X9, X7
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ R13
	JNZ  nt32tailloop

nt32epi:
	VMOVSD TA_ALPHA(DI), X14
	VCVTSD2SS X14, X14, X14
	VMULSS X14, X0, X0
	VMULSS X14, X1, X1
	VMULSS X14, X2, X2
	VMULSS X14, X3, X3
	VMULSS X14, X4, X4
	VMULSS X14, X5, X5
	VMULSS X14, X6, X6
	VMULSS X14, X7, X7
	MOVQ TA_C(DI), SI
	LEAQ (SI)(R14*4), SI
	LEAQ (SI)(BX*1), DX
	VMOVSD TA_BETA(DI), X15
	VCVTSD2SS X15, X15, X15
	VXORPS X13, X13, X13
	UCOMISS X15, X13
	JNE  nt32betanz
	JP   nt32betanz
	VMOVSS X0, (SI)
	VMOVSS X1, 4(SI)
	VMOVSS X2, 8(SI)
	VMOVSS X3, 12(SI)
	VMOVSS X4, (DX)
	VMOVSS X5, 4(DX)
	VMOVSS X6, 8(DX)
	VMOVSS X7, 12(DX)
	JMP  nt32nextj

nt32betanz:
	VMOVSS (SI), X13
	VFMADD231SS X13, X15, X0
	VMOVSS X0, (SI)
	VMOVSS 4(SI), X13
	VFMADD231SS X13, X15, X1
	VMOVSS X1, 4(SI)
	VMOVSS 8(SI), X13
	VFMADD231SS X13, X15, X2
	VMOVSS X2, 8(SI)
	VMOVSS 12(SI), X13
	VFMADD231SS X13, X15, X3
	VMOVSS X3, 12(SI)
	VMOVSS (DX), X13
	VFMADD231SS X13, X15, X4
	VMOVSS X4, (DX)
	VMOVSS 4(DX), X13
	VFMADD231SS X13, X15, X5
	VMOVSS X5, 4(DX)
	VMOVSS 8(DX), X13
	VFMADD231SS X13, X15, X6
	VMOVSS X6, 8(DX)
	VMOVSS 12(DX), X13
	VFMADD231SS X13, X15, X7
	VMOVSS X7, 12(DX)

nt32nextj:
	ADDQ $4, R14
	JMP  nt32jloop

nt32done:
	VZEROUPPER
	RET

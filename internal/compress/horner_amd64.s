//go:build amd64 && !purego

#include "textflag.h"

// Vectorized Horner/synthetic-division sweep of one table segment, AVX2
// (ymm, the lane multiple of the channels) and AVX-512 (zmm, every
// channel). The lanes replay the scalar recursion of evalSeg literally —
// VMULP+VADDP, two roundings per step, never FMA — so covered channels
// are bitwise equal to the scalar path (asserted by
// TestHornerSIMDBitIdentical).
//
// Slab addressing: the six coefficient slabs are contiguous m-element
// arrays. With R10 = m*es and R11 = cs + 3*m*es, slab p is reached as
//   c0 (R8)  c1 (R8)(R10*1)  c2 (R8)(R10*2)
//   c3 (R11) c4 (R11)(R10*1) c5 (R11)(R10*2)
// and every chunk advance is a plain ADDQ to R8/R11.

#define HA_CS 0
#define HA_G 8
#define HA_DG 16
#define HA_M 24
#define HA_U 32
#define HA_INVH 40

// One recursion step over two 4-lane f64 groups: p = p*u + coef,
// d = d*u + p. Y15 = u lanes; groups (Y0, Y2) and (Y1, Y3).
#define HSTEP64(MEM0, MEM1) \
	VMULPD Y15, Y0, Y0 \
	VADDPD MEM0, Y0, Y0 \
	VMULPD Y15, Y2, Y2 \
	VADDPD Y0, Y2, Y2 \
	VMULPD Y15, Y1, Y1 \
	VADDPD MEM1, Y1, Y1 \
	VMULPD Y15, Y3, Y3 \
	VADDPD Y1, Y3, Y3

// Single-group variant for the 4-channel remainder chunk.
#define HSTEP64ONE(MEM0) \
	VMULPD Y15, Y0, Y0 \
	VADDPD MEM0, Y0, Y0 \
	VMULPD Y15, Y2, Y2 \
	VADDPD Y0, Y2, Y2

// func hornerRowF64AVX2(args *hornerArgs)
TEXT ·hornerRowF64AVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ HA_CS(DI), R8
	MOVQ HA_G(DI), SI
	MOVQ HA_DG(DI), DX
	MOVQ HA_M(DI), R9
	MOVQ R9, R10
	SHLQ $3, R10             // slab stride in bytes
	LEAQ (R8)(R10*2), R11
	ADDQ R10, R11            // R11 = cs + 3 slabs
	VBROADCASTSD HA_U(DI), Y15
	VBROADCASTSD HA_INVH(DI), Y14

	CMPQ R9, $8
	JLT  f64rem
f64loop8:
	VMOVUPD (R11)(R10*2), Y0     // p0 = c5 lanes
	VMOVUPD 32(R11)(R10*2), Y1
	VMOVAPD Y0, Y2               // d0 = p0
	VMOVAPD Y1, Y3
	HSTEP64((R11)(R10*1), 32(R11)(R10*1))  // c4
	HSTEP64((R11), 32(R11))                // c3
	HSTEP64((R8)(R10*2), 32(R8)(R10*2))    // c2
	HSTEP64((R8)(R10*1), 32(R8)(R10*1))    // c1
	VMULPD  Y15, Y0, Y0          // g = p*u + c0
	VADDPD  (R8), Y0, Y0
	VMULPD  Y15, Y1, Y1
	VADDPD  32(R8), Y1, Y1
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VMULPD  Y14, Y2, Y2          // dg = d*invH
	VMULPD  Y14, Y3, Y3
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    $64, R8
	ADDQ    $64, R11
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $8, R9
	CMPQ    R9, $8
	JGE     f64loop8
f64rem:
	CMPQ R9, $4
	JLT  f64done
	VMOVUPD (R11)(R10*2), Y0
	VMOVAPD Y0, Y2
	HSTEP64ONE((R11)(R10*1))
	HSTEP64ONE((R11))
	HSTEP64ONE((R8)(R10*2))
	HSTEP64ONE((R8)(R10*1))
	VMULPD  Y15, Y0, Y0
	VADDPD  (R8), Y0, Y0
	VMOVUPD Y0, (SI)
	VMULPD  Y14, Y2, Y2
	VMOVUPD Y2, (DX)
f64done:
	VZEROUPPER
	RET

// f32 twin: 8-lane groups, 16-channel main chunk, 8-channel remainder.
#define HSTEP32(MEM0, MEM1) \
	VMULPS Y15, Y0, Y0 \
	VADDPS MEM0, Y0, Y0 \
	VMULPS Y15, Y2, Y2 \
	VADDPS Y0, Y2, Y2 \
	VMULPS Y15, Y1, Y1 \
	VADDPS MEM1, Y1, Y1 \
	VMULPS Y15, Y3, Y3 \
	VADDPS Y1, Y3, Y3

#define HSTEP32ONE(MEM0) \
	VMULPS Y15, Y0, Y0 \
	VADDPS MEM0, Y0, Y0 \
	VMULPS Y15, Y2, Y2 \
	VADDPS Y0, Y2, Y2

// func hornerRowF32AVX2(args *hornerArgs)
TEXT ·hornerRowF32AVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ HA_CS(DI), R8
	MOVQ HA_G(DI), SI
	MOVQ HA_DG(DI), DX
	MOVQ HA_M(DI), R9
	MOVQ R9, R10
	SHLQ $2, R10
	LEAQ (R8)(R10*2), R11
	ADDQ R10, R11
	VMOVSD       HA_U(DI), X15
	VCVTSD2SS    X15, X15, X15
	VBROADCASTSS X15, Y15
	VMOVSD       HA_INVH(DI), X14
	VCVTSD2SS    X14, X14, X14
	VBROADCASTSS X14, Y14

	CMPQ R9, $16
	JLT  f32rem
f32loop16:
	VMOVUPS (R11)(R10*2), Y0
	VMOVUPS 32(R11)(R10*2), Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y1, Y3
	HSTEP32((R11)(R10*1), 32(R11)(R10*1))
	HSTEP32((R11), 32(R11))
	HSTEP32((R8)(R10*2), 32(R8)(R10*2))
	HSTEP32((R8)(R10*1), 32(R8)(R10*1))
	VMULPS  Y15, Y0, Y0
	VADDPS  (R8), Y0, Y0
	VMULPS  Y15, Y1, Y1
	VADDPS  32(R8), Y1, Y1
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	VMULPS  Y14, Y2, Y2
	VMULPS  Y14, Y3, Y3
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    $64, R8
	ADDQ    $64, R11
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $16, R9
	CMPQ    R9, $16
	JGE     f32loop16
f32rem:
	CMPQ R9, $8
	JLT  f32done
	VMOVUPS (R11)(R10*2), Y0
	VMOVAPS Y0, Y2
	HSTEP32ONE((R11)(R10*1))
	HSTEP32ONE((R11))
	HSTEP32ONE((R8)(R10*2))
	HSTEP32ONE((R8)(R10*1))
	VMULPS  Y15, Y0, Y0
	VADDPS  (R8), Y0, Y0
	VMOVUPS Y0, (SI)
	VMULPS  Y14, Y2, Y2
	VMOVUPS Y2, (DX)
f32done:
	VZEROUPPER
	RET

// AVX-512 twins: two zmm groups per step (16 f64 / 32 f32 channels), then
// one group per step with the last one masked — K1 from hmask<>, the slab
// operands loaded zero-masked (no lane past the row is read) and the
// stores masked — so every channel runs on the lanes and none is left to
// the scalar recursion. The same VMULP+VADDP sequence as the AVX2 kernels.
DATA hmask<>+0(SB)/2, $0x0000
DATA hmask<>+2(SB)/2, $0x0001
DATA hmask<>+4(SB)/2, $0x0003
DATA hmask<>+6(SB)/2, $0x0007
DATA hmask<>+8(SB)/2, $0x000f
DATA hmask<>+10(SB)/2, $0x001f
DATA hmask<>+12(SB)/2, $0x003f
DATA hmask<>+14(SB)/2, $0x007f
DATA hmask<>+16(SB)/2, $0x00ff
DATA hmask<>+18(SB)/2, $0x01ff
DATA hmask<>+20(SB)/2, $0x03ff
DATA hmask<>+22(SB)/2, $0x07ff
DATA hmask<>+24(SB)/2, $0x0fff
DATA hmask<>+26(SB)/2, $0x1fff
DATA hmask<>+28(SB)/2, $0x3fff
DATA hmask<>+30(SB)/2, $0x7fff
DATA hmask<>+32(SB)/2, $0xffff
GLOBL hmask<>(SB), RODATA, $34

// Two-group step on zmm: Z15 = u lanes; groups (Z0, Z2) and (Z1, Z3).
#define ZSTEP64(MEM0, MEM1) \
	VMULPD Z15, Z0, Z0 \
	VADDPD MEM0, Z0, Z0 \
	VMULPD Z15, Z2, Z2 \
	VADDPD Z0, Z2, Z2 \
	VMULPD Z15, Z1, Z1 \
	VADDPD MEM1, Z1, Z1 \
	VMULPD Z15, Z3, Z3 \
	VADDPD Z1, Z3, Z3

// Masked one-group step: the slab operand is loaded under K1, zeroing.
#define ZSTEP64ONE(MEM0) \
	VMOVUPD.Z MEM0, K1, Z4 \
	VMULPD Z15, Z0, Z0 \
	VADDPD Z4, Z0, Z0 \
	VMULPD Z15, Z2, Z2 \
	VADDPD Z0, Z2, Z2

// func hornerRowF64AVX512(args *hornerArgs)
TEXT ·hornerRowF64AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ HA_CS(DI), R8
	MOVQ HA_G(DI), SI
	MOVQ HA_DG(DI), DX
	MOVQ HA_M(DI), R9
	MOVQ R9, R10
	SHLQ $3, R10             // slab stride in bytes
	LEAQ (R8)(R10*2), R11
	ADDQ R10, R11            // R11 = cs + 3 slabs
	VBROADCASTSD HA_U(DI), Z15
	VBROADCASTSD HA_INVH(DI), Z14
	LEAQ hmask<>(SB), R12

	CMPQ R9, $16
	JLT  z64one
z64loop16:
	VMOVUPD (R11)(R10*2), Z0     // p = c5 lanes
	VMOVUPD 64(R11)(R10*2), Z1
	VMOVAPD Z0, Z2               // d = p
	VMOVAPD Z1, Z3
	ZSTEP64((R11)(R10*1), 64(R11)(R10*1))  // c4
	ZSTEP64((R11), 64(R11))                // c3
	ZSTEP64((R8)(R10*2), 64(R8)(R10*2))    // c2
	ZSTEP64((R8)(R10*1), 64(R8)(R10*1))    // c1
	VMULPD  Z15, Z0, Z0          // g = p*u + c0
	VADDPD  (R8), Z0, Z0
	VMULPD  Z15, Z1, Z1
	VADDPD  64(R8), Z1, Z1
	VMOVUPD Z0, (SI)
	VMOVUPD Z1, 64(SI)
	VMULPD  Z14, Z2, Z2          // dg = d*invH
	VMULPD  Z14, Z3, Z3
	VMOVUPD Z2, (DX)
	VMOVUPD Z3, 64(DX)
	ADDQ    $128, R8
	ADDQ    $128, R11
	ADDQ    $128, SI
	ADDQ    $128, DX
	SUBQ    $16, R9
	CMPQ    R9, $16
	JGE     z64loop16
z64one:
	TESTQ R9, R9
	JZ    z64done
	MOVQ  R9, AX
	CMPQ  AX, $8
	JLE   z64mask
	MOVQ  $8, AX
z64mask:
	MOVWLZX (R12)(AX*2), BX
	KMOVW   BX, K1
	VMOVUPD.Z (R11)(R10*2), K1, Z0
	VMOVAPD Z0, Z2
	ZSTEP64ONE((R11)(R10*1))
	ZSTEP64ONE((R11))
	ZSTEP64ONE((R8)(R10*2))
	ZSTEP64ONE((R8)(R10*1))
	VMOVUPD.Z (R8), K1, Z4
	VMULPD  Z15, Z0, Z0
	VADDPD  Z4, Z0, Z0
	VMOVUPD Z0, K1, (SI)
	VMULPD  Z14, Z2, Z2
	VMOVUPD Z2, K1, (DX)
	ADDQ    $64, R8
	ADDQ    $64, R11
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    AX, R9
	JMP     z64one
z64done:
	VZEROUPPER
	RET

#define ZSTEP32(MEM0, MEM1) \
	VMULPS Z15, Z0, Z0 \
	VADDPS MEM0, Z0, Z0 \
	VMULPS Z15, Z2, Z2 \
	VADDPS Z0, Z2, Z2 \
	VMULPS Z15, Z1, Z1 \
	VADDPS MEM1, Z1, Z1 \
	VMULPS Z15, Z3, Z3 \
	VADDPS Z1, Z3, Z3

#define ZSTEP32ONE(MEM0) \
	VMOVUPS.Z MEM0, K1, Z4 \
	VMULPS Z15, Z0, Z0 \
	VADDPS Z4, Z0, Z0 \
	VMULPS Z15, Z2, Z2 \
	VADDPS Z0, Z2, Z2

// func hornerRowF32AVX512(args *hornerArgs)
TEXT ·hornerRowF32AVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), DI
	MOVQ HA_CS(DI), R8
	MOVQ HA_G(DI), SI
	MOVQ HA_DG(DI), DX
	MOVQ HA_M(DI), R9
	MOVQ R9, R10
	SHLQ $2, R10
	LEAQ (R8)(R10*2), R11
	ADDQ R10, R11
	VMOVSD       HA_U(DI), X15
	VCVTSD2SS    X15, X15, X15
	VBROADCASTSS X15, Z15
	VMOVSD       HA_INVH(DI), X14
	VCVTSD2SS    X14, X14, X14
	VBROADCASTSS X14, Z14
	LEAQ hmask<>(SB), R12

	CMPQ R9, $32
	JLT  z32one
z32loop32:
	VMOVUPS (R11)(R10*2), Z0
	VMOVUPS 64(R11)(R10*2), Z1
	VMOVAPS Z0, Z2
	VMOVAPS Z1, Z3
	ZSTEP32((R11)(R10*1), 64(R11)(R10*1))
	ZSTEP32((R11), 64(R11))
	ZSTEP32((R8)(R10*2), 64(R8)(R10*2))
	ZSTEP32((R8)(R10*1), 64(R8)(R10*1))
	VMULPS  Z15, Z0, Z0
	VADDPS  (R8), Z0, Z0
	VMULPS  Z15, Z1, Z1
	VADDPS  64(R8), Z1, Z1
	VMOVUPS Z0, (SI)
	VMOVUPS Z1, 64(SI)
	VMULPS  Z14, Z2, Z2
	VMULPS  Z14, Z3, Z3
	VMOVUPS Z2, (DX)
	VMOVUPS Z3, 64(DX)
	ADDQ    $128, R8
	ADDQ    $128, R11
	ADDQ    $128, SI
	ADDQ    $128, DX
	SUBQ    $32, R9
	CMPQ    R9, $32
	JGE     z32loop32
z32one:
	TESTQ R9, R9
	JZ    z32done
	MOVQ  R9, AX
	CMPQ  AX, $16
	JLE   z32mask
	MOVQ  $16, AX
z32mask:
	MOVWLZX (R12)(AX*2), BX
	KMOVW   BX, K1
	VMOVUPS.Z (R11)(R10*2), K1, Z0
	VMOVAPS Z0, Z2
	ZSTEP32ONE((R11)(R10*1))
	ZSTEP32ONE((R11))
	ZSTEP32ONE((R8)(R10*2))
	ZSTEP32ONE((R8)(R10*1))
	VMOVUPS.Z (R8), K1, Z4
	VMULPS  Z15, Z0, Z0
	VADDPS  Z4, Z0, Z0
	VMOVUPS Z0, K1, (SI)
	VMULPS  Z14, Z2, Z2
	VMOVUPS Z2, K1, (DX)
	ADDQ    $64, R8
	ADDQ    $64, R11
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    AX, R9
	JMP     z32one
z32done:
	VZEROUPPER
	RET

//go:build amd64 && !purego

#include "textflag.h"

// Vectorized Horner/synthetic-division sweep of one table segment, AVX2
// (ymm, the lane multiple of the channels; AVX-512 hosts run these too).
// The lanes replay the scalar recursion of evalSeg literally —
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

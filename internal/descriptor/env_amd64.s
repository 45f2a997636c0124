//go:build amd64 && !purego

#include "textflag.h"

// Environment kernels (env.go): the distance refresh of Scratch.Rows and
// the R~ and geometry rows of Scratch.Fill, eight neighbors per zmm. Every
// output element takes the IEEE operations of the Go code it replaces, in
// the same order and with no FMA (the Go compiler fuses nothing on amd64):
//
//   d = pos[3j:3j+3] - pos[3i:3i+3]       neighbor.Displacement
//   d -= L*n, n = 1 (q >= 0.5), -1 (q <= -0.5) or 0, q = d/L    MinImage
//   r = sqrt((dx*dx + dy*dy) + dz*dz)     vecNorm
//
// and for the rows fillEnvSlot and Smooth, with math.Cos and math.Sin of
// one shared argument reduced once (Go's Payne-Hanek branch, x >= 2^29,
// is never taken: such a group stops the kernel). A kernel stops at the
// first group of eight that holds an index >= nall, a far image (|q| not
// below 1.5, or NaN) or a non-finite r, and returns how many entries it
// wrote; the Go loop takes over from there, so errors and far images come
// from the Go code. FuzzEnvironmentKernelBits holds the kernels to the
// Go loops bit for bit.

#define EA_POS 0
#define EA_CTR 8
#define EA_IDX 16
#define EA_OUT 24
#define EA_GEO 32
#define EA_BOX 40
#define EA_N 48
#define EA_NALL 56
#define EA_RCUT 64
#define EA_RMIN 72
#define EA_WIDTH 80

// Constants, float64 unless noted. The polynomials are math's _sin and
// _cos, the reduction constants its PI4A, PI4B and PI4C.
#define C_PI 0
#define C_4OPI 8
#define C_PI4A 16
#define C_PI4B 24
#define C_PI4C 32
#define C_NHALFPI 40
#define C_HALF 48
#define C_NHALF 56
#define C_1P5 64
#define C_NONE 72
#define C_MAX 80
#define C_2P29 88
#define C_SIGN 96
#define C_ABS 104
#define C_I1 112
#define C_I2 120
#define C_I4 128
#define C_SIN 136
#define C_COS 184
#define C_ONE 232

DATA envc<>+0(SB)/8, $0x400921fb54442d18   // float64(π)
DATA envc<>+8(SB)/8, $0x3ff45f306dc9c883   // float64(4/π)
DATA envc<>+16(SB)/8, $0x3fe921fb40000000  // PI4A
DATA envc<>+24(SB)/8, $0x3e64442d00000000  // PI4B
DATA envc<>+32(SB)/8, $0x3ce8469898cc5170  // PI4C
DATA envc<>+40(SB)/8, $0xbff921fb54442d18  // float64(-π/2)
DATA envc<>+48(SB)/8, $0x3fe0000000000000  // 0.5
DATA envc<>+56(SB)/8, $0xbfe0000000000000  // -0.5
DATA envc<>+64(SB)/8, $0x3ff8000000000000  // 1.5
DATA envc<>+72(SB)/8, $0xbff0000000000000  // -1
DATA envc<>+80(SB)/8, $0x7fefffffffffffff  // math.MaxFloat64
DATA envc<>+88(SB)/8, $0x41c0000000000000  // 2^29, math's reduceThreshold
DATA envc<>+96(SB)/8, $0x8000000000000000  // sign bit
DATA envc<>+104(SB)/8, $0x7fffffffffffffff // all but the sign bit
DATA envc<>+112(SB)/8, $1                  // int64
DATA envc<>+120(SB)/8, $2                  // int64
DATA envc<>+128(SB)/8, $4                  // int64
DATA envc<>+136(SB)/8, $0x3de5d8fd1fd19ccd // _sin[0]
DATA envc<>+144(SB)/8, $0xbe5ae5e5a9291f5d
DATA envc<>+152(SB)/8, $0x3ec71de3567d48a1
DATA envc<>+160(SB)/8, $0xbf2a01a019bfdf03
DATA envc<>+168(SB)/8, $0x3f8111111110f7d0
DATA envc<>+176(SB)/8, $0xbfc5555555555548 // _sin[5]
DATA envc<>+184(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA envc<>+192(SB)/8, $0x3e21ee9d7b4e3f05
DATA envc<>+200(SB)/8, $0xbe927e4f7eac4bc6
DATA envc<>+208(SB)/8, $0x3efa01a019c844f5
DATA envc<>+216(SB)/8, $0xbf56c16c16c14f91
DATA envc<>+224(SB)/8, $0x3fa555555555554b // _cos[5]
DATA envc<>+232(SB)/8, $0x3ff0000000000000 // 1
GLOBL envc<>(SB), RODATA, $240

// ENV_SETUP: DI = args, R8 = pos, SI = idx, R10 = box (0 without one),
// R13 = n, BX = 0 (entries done), Y20 = nall on every dword lane, Z21-Z23
// = the center's coordinates and, with a box, Z24-Z26 = its edges.
#define ENV_SETUP \
	MOVQ args+0(FP), DI     \
	MOVQ EA_POS(DI), R8     \
	MOVQ EA_IDX(DI), SI     \
	MOVQ EA_BOX(DI), R10    \
	MOVQ EA_N(DI), R13      \
	MOVQ EA_NALL(DI), AX    \
	VPBROADCASTD AX, Y20    \
	MOVQ EA_CTR(DI), R9     \
	VBROADCASTSD (R9), Z21  \
	VBROADCASTSD 8(R9), Z22 \
	VBROADCASTSD 16(R9), Z23 \
	TESTQ R10, R10          \
	JZ   4(PC)              \
	VBROADCASTSD (R10), Z24 \
	VBROADCASTSD 8(R10), Z25 \
	VBROADCASTSD 16(R10), Z26 \
	XORQ BX, BX

// ENV_LOAD(STOP): the group of CX = min(n-BX, 8) entries from BX, K1 its
// lanes: jumps to STOP when an index is >= nall (unsigned: a negative
// int32 too), else gathers the neighbors and leaves d = r_j - r_i in
// Z4-Z6. Clobbers AX, Y0, Y1, K2.
#define ENV_LOAD(STOP) \
	MOVQ R13, CX                    \
	SUBQ BX, CX                     \
	CMPQ CX, $8                     \
	JLE  2(PC)                      \
	MOVQ $8, CX                     \
	MOVL $1, AX                     \
	SHLL CX, AX                     \
	DECL AX                         \
	KMOVW AX, K1                    \
	VMOVDQU32.Z (SI)(BX*4), K1, Y0  \
	VPCMPUD $5, Y20, Y0, K1, K2     \
	KORTESTW K2, K2                 \
	JNZ  STOP                       \
	VPADDD Y0, Y0, Y1               \
	VPADDD Y0, Y1, Y1               \
	KMOVW K1, K2                    \
	VGATHERDPD (R8)(Y1*8), K2, Z4   \
	KMOVW K1, K2                    \
	VGATHERDPD 8(R8)(Y1*8), K2, Z5  \
	KMOVW K1, K2                    \
	VGATHERDPD 16(R8)(Y1*8), K2, Z6 \
	VSUBPD Z21, Z4, Z4              \
	VSUBPD Z22, Z5, Z5              \
	VSUBPD Z23, Z6, Z6

// MINIMAGE(D, L): MinImage on one axis, D -= L*n; K3 keeps only the
// lanes whose q = D/L satisfies |q| < 1.5. Clobbers Z7, Z8, K4, K5.
#define MINIMAGE(D, L) \
	VDIVPD L, D, Z7                                  \
	VPANDQ.BCST envc<>+C_ABS(SB), Z7, Z8             \
	VCMPPD.BCST $0x11, envc<>+C_1P5(SB), Z8, K3, K3  \
	VCMPPD.BCST $0x1d, envc<>+C_HALF(SB), Z7, K4     \
	VCMPPD.BCST $0x12, envc<>+C_NHALF(SB), Z7, K5    \
	VMOVAPD.Z Z30, K4, Z8                            \
	VBROADCASTSD envc<>+C_NONE(SB), K5, Z8           \
	VMULPD Z8, L, Z8                                 \
	VSUBPD Z8, D, D

// ENV_IMAGE(STOP): the minimum image of Z4-Z6 under the box; jumps to
// STOP when a lane of K1 has a far image. Needs Z30 = 1.
#define ENV_IMAGE(STOP) \
	KMOVW K1, K3         \
	MINIMAGE(Z4, Z24)    \
	MINIMAGE(Z5, Z25)    \
	MINIMAGE(Z6, Z26)    \
	KXORW K1, K3, K3     \
	KORTESTW K3, K3      \
	JNZ  STOP

// ENV_NORM(STOP): Z9 = r = |d|; jumps to STOP when r is not finite on a
// lane of K1. Clobbers Z7, K2.
#define ENV_NORM(STOP) \
	VMULPD Z4, Z4, Z9                                \
	VMULPD Z5, Z5, Z7                                \
	VADDPD Z7, Z9, Z9                                \
	VMULPD Z6, Z6, Z7                                \
	VADDPD Z7, Z9, Z9                                \
	VSQRTPD Z9, Z9                                   \
	VCMPPD.BCST $0x12, envc<>+C_MAX(SB), Z9, K1, K2  \
	KXORW K1, K2, K2                                 \
	KORTESTW K2, K2                                  \
	JNZ  STOP

// ENV_STOP returns BX, capped at n.
#define ENV_STOP \
	CMPQ    BX, R13       \
	CMOVQGT R13, BX       \
	MOVQ    BX, ret+8(FP) \
	VZEROUPPER            \
	RET

// func envRefreshAVX512(args *envArgs) int
TEXT ·envRefreshAVX512(SB), NOSPLIT, $0-16
	ENV_SETUP
	MOVQ EA_OUT(DI), R11
	VBROADCASTSD envc<>+C_ONE(SB), Z30
rloop:
	CMPQ BX, R13
	JGE  rdone
	ENV_LOAD(rdone)
	TESTQ R10, R10
	JZ   rnorm
	ENV_IMAGE(rdone)
rnorm:
	ENV_NORM(rdone)
	VMOVUPD Z9, K1, (R11)(BX*8)
	ADDQ $8, BX
	JMP  rloop
rdone:
	ENV_STOP

// AOS_STORE(A, B, C, D, BASE): store the rows (A[l], B[l], C[l], D[l]) of
// the lanes to BASE+DX under the per-register masks K4-K7 (two rows
// each). Clobbers A-D, Z0, Z1, Z7, Z8.
#define AOS_STORE(A, B, C, D, BASE) \
	VUNPCKLPD B, A, Z0               \
	VUNPCKHPD B, A, Z1               \
	VUNPCKLPD D, C, Z7               \
	VUNPCKHPD D, C, Z8               \
	VSHUFF64X2 $0x44, Z7, Z0, A      \
	VSHUFF64X2 $0x44, Z8, Z1, B      \
	VSHUFF64X2 $0xee, Z7, Z0, C      \
	VSHUFF64X2 $0xee, Z8, Z1, D      \
	VSHUFF64X2 $0x88, B, A, Z0       \
	VSHUFF64X2 $0xdd, B, A, Z1       \
	VSHUFF64X2 $0x88, D, C, Z7       \
	VSHUFF64X2 $0xdd, D, C, Z8       \
	VMOVUPD Z0, K4, (BASE)(DX*1)     \
	VMOVUPD Z1, K5, 64(BASE)(DX*1)   \
	VMOVUPD Z7, K6, 128(BASE)(DX*1)  \
	VMOVUPD Z8, K7, 192(BASE)(DX*1)

// POLY(P, ZZ, C): P = (((((C[0]*ZZ + C[1])*ZZ + C[2])*ZZ + C[3])*ZZ +
// C[4])*ZZ + C[5]), math's Horner order.
#define POLY(P, ZZ, C) \
	VMULPD.BCST envc<>+(C+0)(SB), ZZ, P  \
	VADDPD.BCST envc<>+(C+8)(SB), P, P   \
	VMULPD ZZ, P, P                      \
	VADDPD.BCST envc<>+(C+16)(SB), P, P  \
	VMULPD ZZ, P, P                      \
	VADDPD.BCST envc<>+(C+24)(SB), P, P  \
	VMULPD ZZ, P, P                      \
	VADDPD.BCST envc<>+(C+32)(SB), P, P  \
	VMULPD ZZ, P, P                      \
	VADDPD.BCST envc<>+(C+40)(SB), P, P

// func envFillAVX512(args *envArgs) int
//
// Per group, after d (Z4-Z6) and r (Z9): K2 = the lanes with a row (r <
// rcut, r != 0), Z10 = inv = 1/r, Z11 = (-inv)*inv, Z2 = s and Z3 = s'
// (the r < rmin branch, overwritten on the switched lanes K3).
TEXT ·envFillAVX512(SB), NOSPLIT, $0-16
	ENV_SETUP
	MOVQ EA_OUT(DI), R11
	MOVQ EA_GEO(DI), R12
	VBROADCASTSD EA_RCUT(DI), Z27
	VBROADCASTSD EA_RMIN(DI), Z28
	VBROADCASTSD EA_WIDTH(DI), Z29
	VBROADCASTSD envc<>+C_ONE(SB), Z30
	VPXORQ Z31, Z31, Z31
floop:
	CMPQ BX, R13
	JGE  fdone
	ENV_LOAD(fdone)
	TESTQ R10, R10
	JZ   fnorm
	ENV_IMAGE(fdone)
fnorm:
	ENV_NORM(fdone)
	VCMPPD $0x19, Z27, Z9, K1, K2 // !(r >= rcut)
	VCMPPD $0x04, Z31, Z9, K2, K2 // r != 0
	VDIVPD Z9, Z30, Z10
	VPXORQ.BCST envc<>+C_SIGN(SB), Z10, Z11
	VMULPD Z10, Z11, Z11
	VMOVAPD Z10, Z2
	VMOVAPD Z11, Z3
	VCMPPD $0x15, Z28, Z9, K2, K3 // !(r < rmin)
	KORTESTW K3, K3
	JZ   frow

	// Switched lanes: u = (r - rmin)/width and x = π*u, which must lie
	// in [0, 2^29).
	VSUBPD Z28, Z9, Z12
	VDIVPD Z29, Z12, Z12
	VMULPD.BCST envc<>+C_PI(SB), Z12, Z12
	VCMPPD.BCST $0x11, envc<>+C_2P29(SB), Z12, K3, K4
	VCMPPD $0x1d, Z31, Z12, K4, K4
	KXORW K3, K4, K4
	KORTESTW K4, K4
	JNZ  fdone

	// j = trunc(x*(4/π)), y = float64(j); odd j: j+1, y+1. Then z =
	// ((x - y*PI4A) - y*PI4B) - y*PI4C and zz = z*z.
	VMULPD.BCST envc<>+C_4OPI(SB), Z12, Z13
	VCVTTPD2QQ Z13, Z14
	VCVTQQ2PD Z14, Z13
	VPTESTMQ.BCST envc<>+C_I1(SB), Z14, K4
	VPADDQ.BCST envc<>+C_I1(SB), Z14, K4, Z14
	VADDPD Z30, Z13, K4, Z13
	VMULPD.BCST envc<>+C_PI4A(SB), Z13, Z15
	VSUBPD Z15, Z12, Z15
	VMULPD.BCST envc<>+C_PI4B(SB), Z13, Z16
	VSUBPD Z16, Z15, Z15
	VMULPD.BCST envc<>+C_PI4C(SB), Z13, Z16
	VSUBPD Z16, Z15, Z15
	VMULPD Z15, Z15, Z16

	// S = z + (z*zz)*P_sin and C = (1 - 0.5*zz) + (zz*zz)*P_cos.
	POLY(Z17, Z16, C_SIN)
	VMULPD Z16, Z15, Z18
	VMULPD Z17, Z18, Z18
	VADDPD Z18, Z15, Z17
	POLY(Z18, Z16, C_COS)
	VMULPD Z16, Z16, Z19
	VMULPD Z18, Z19, Z19
	VMULPD.BCST envc<>+C_HALF(SB), Z16, Z18
	VSUBPD Z18, Z30, Z18
	VADDPD Z19, Z18, Z18

	// With j even, bit 1 picks the polynomial: cos = S, sin = C where it
	// is set. cos flips its sign where bits 1 and 2 differ, sin where
	// bit 2 is set.
	VPTESTMQ.BCST envc<>+C_I2(SB), Z14, K4
	VPTESTMQ.BCST envc<>+C_I4(SB), Z14, K5
	VBLENDMPD Z17, Z18, K4, Z12
	VBLENDMPD Z18, Z17, K4, Z13
	KXORW K4, K5, K4
	VPXORQ.BCST envc<>+C_SIGN(SB), Z12, K4, Z12
	VPXORQ.BCST envc<>+C_SIGN(SB), Z13, K5, Z13

	// w = 0.5*cos + 0.5, dw = (-π/2*sin)/width; s = inv*w and
	// s' = ((-inv)*inv)*w + inv*dw on the switched lanes.
	VMULPD.BCST envc<>+C_HALF(SB), Z12, Z12
	VADDPD.BCST envc<>+C_HALF(SB), Z12, Z12
	VMULPD.BCST envc<>+C_NHALFPI(SB), Z13, Z13
	VDIVPD Z29, Z13, Z13
	VMULPD Z12, Z10, K3, Z2
	VMULPD Z12, Z11, Z12
	VMULPD Z13, Z10, Z13
	VADDPD Z13, Z12, K3, Z3

frow:
	// q = s*inv; R~ = (s, q*dx, q*dy, q*dz), geo = (dx, dy, dz, s'),
	// zero off K2. Store masks: 4*CX elements over four registers.
	VMULPD Z10, Z2, Z7
	VMOVAPD.Z Z2, K2, Z12
	VMULPD.Z Z4, Z7, K2, Z13
	VMULPD.Z Z5, Z7, K2, Z14
	VMULPD.Z Z6, Z7, K2, Z15
	VMOVAPD.Z Z4, K2, Z16
	VMOVAPD.Z Z5, K2, Z17
	VMOVAPD.Z Z6, K2, Z18
	VMOVAPD.Z Z3, K2, Z19
	SHLQ $2, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K4
	SHRQ $8, AX
	KMOVW AX, K5
	SHRQ $8, AX
	KMOVW AX, K6
	SHRQ $8, AX
	KMOVW AX, K7
	MOVQ BX, DX
	SHLQ $5, DX
	AOS_STORE(Z12, Z13, Z14, Z15, R11)
	AOS_STORE(Z16, Z17, Z18, Z19, R12)
	ADDQ $8, BX
	JMP  floop
fdone:
	ENV_STOP

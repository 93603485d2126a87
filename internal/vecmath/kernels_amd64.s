#include "textflag.h"

// REDUCE4 stores into off(DX) the four horizontal sums of the accumulators
// r0..r3, each as ((l0 + l1) + l2) + l3 over its lanes. A 4 × 4 transpose
// puts lane l of every accumulator into one register Tl: VUNPCKLPD and
// VUNPCKHPD pair lanes 0/2 and 1/3 of r0 with r1 (Y8, Y9) and of r2 with r3
// (Y10, Y11) within each 128-bit half, and VPERM2F128 joins the low halves
// (T0 = Y12, T1 = Y13) and the high halves (T2 = Y14, T3 = Y15). Three
// vertical adds then sum T0..T3 in order. Clobbers Y8–Y15.
#define REDUCE4(r0, r1, r2, r3, off) \
	VUNPCKLPD  r1, r0, Y8; \
	VUNPCKHPD  r1, r0, Y9; \
	VUNPCKLPD  r3, r2, Y10; \
	VUNPCKHPD  r3, r2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15; \
	VADDPD     Y13, Y12, Y12; \
	VADDPD     Y14, Y12, Y12; \
	VADDPD     Y15, Y12, Y12; \
	VMOVUPD    Y12, off(DX)

// func dotTile2x4(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)
//
// Y0..Y3 hold a0's four-lane chains against b0..b3, Y4..Y7 a1's. Each step
// multiplies then adds (VMULPD, VADDPD: two roundings, as the scalar
// p += a*b), never a fused multiply-add.
TEXT ·dotTile2x4(SB), NOSPLIT, $0-64
	MOVQ   a0+0(FP), SI
	MOVQ   a1+8(FP), DI
	MOVQ   b0+16(FP), R8
	MOVQ   b1+24(FP), R9
	MOVQ   b2+32(FP), R10
	MOVQ   b3+40(FP), R11
	MOVQ   n+48(FP), CX
	MOVQ   out+56(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   CX, $0
	JLE    reduce

loop:
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (DI)(AX*8), Y9
	VMOVUPD (R8)(AX*8), Y10
	VMULPD  Y10, Y8, Y11
	VMULPD  Y10, Y9, Y12
	VADDPD  Y11, Y0, Y0
	VADDPD  Y12, Y4, Y4
	VMOVUPD (R9)(AX*8), Y10
	VMULPD  Y10, Y8, Y11
	VMULPD  Y10, Y9, Y12
	VADDPD  Y11, Y1, Y1
	VADDPD  Y12, Y5, Y5
	VMOVUPD (R10)(AX*8), Y10
	VMULPD  Y10, Y8, Y11
	VMULPD  Y10, Y9, Y12
	VADDPD  Y11, Y2, Y2
	VADDPD  Y12, Y6, Y6
	VMOVUPD (R11)(AX*8), Y10
	VMULPD  Y10, Y8, Y11
	VMULPD  Y10, Y9, Y12
	VADDPD  Y11, Y3, Y3
	VADDPD  Y12, Y7, Y7
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop

reduce:
	REDUCE4(Y0, Y1, Y2, Y3, 0)
	REDUCE4(Y4, Y5, Y6, Y7, 32)
	VZEROUPPER
	RET

// func axpyTile16(dst, a *float64, as int, b *float64, bs, n int)
//
// Y0..Y3 hold dst[0:16] across the whole reduction. Step k reads a[k*as];
// when it is ±0 (its bits shifted left past the sign are zero) the step is
// skipped, as the Go kernels' av == 0 test does, while NaN is not. Otherwise
// VBROADCASTSD spreads it over Y4, and each four-lane quad of b[k*bs:][0:16]
// is multiplied by it, then added (VMULPD, VADDPD: two roundings, as the
// scalar d += a*b), never a fused multiply-add.
TEXT ·axpyTile16(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DX
	MOVQ    a+8(FP), SI
	MOVQ    as+16(FP), R8
	MOVQ    b+24(FP), DI
	MOVQ    bs+32(FP), R9
	MOVQ    n+40(FP), CX
	SHLQ    $3, R8
	SHLQ    $3, R9
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	TESTQ   CX, CX
	JLE     store

step:
	MOVQ         (SI), AX
	SHLQ         $1, AX
	JZ           next
	VBROADCASTSD (SI), Y4
	VMULPD       0(DI), Y4, Y5
	VMULPD       32(DI), Y4, Y6
	VMULPD       64(DI), Y4, Y7
	VMULPD       96(DI), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3

next:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  step

store:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET

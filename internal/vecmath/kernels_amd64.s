#include "go_asm.h"
#include "textflag.h"

// REDUCE4 leaves in Y12 the four horizontal sums of the accumulators
// r0..r3, each as ((l0 + l1) + l2) + l3 over its lanes. A 4 × 4 transpose
// puts lane l of every accumulator into one register Tl: VUNPCKLPD and
// VUNPCKHPD pair lanes 0/2 and 1/3 of r0 with r1 (Y8, Y9) and of r2 with r3
// (Y10, Y11) within each 128-bit half, and VPERM2F128 joins the low halves
// (T0 = Y12, T1 = Y13) and the high halves (T2 = Y14, T3 = Y15). Three
// vertical adds then sum T0..T3 in order. Clobbers Y8–Y15.
#define REDUCE4(r0, r1, r2, r3) \
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
	VADDPD     Y15, Y12, Y12

// DOT2X4_ARGS loads the operands dotTile2x4 and dotTile2x4Out share and
// clears the eight accumulators and the index AX.
#define DOT2X4_ARGS \
	MOVQ   a0+0(FP), SI; \
	MOVQ   a1+8(FP), DI; \
	MOVQ   b0+16(FP), R8; \
	MOVQ   b1+24(FP), R9; \
	MOVQ   b2+32(FP), R10; \
	MOVQ   b3+40(FP), R11; \
	MOVQ   n+48(FP), CX; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	XORQ   AX, AX

// DOT2X4_STEP advances the eight chains by one four-lane step at AX: Y0..Y3
// hold a0's chains against b0..b3, Y4..Y7 a1's. Each step multiplies then
// adds (VMULPD, VADDPD: two roundings, as the scalar p += a*b), never a
// fused multiply-add.
#define DOT2X4_STEP \
	VMOVUPD (SI)(AX*8), Y8; \
	VMOVUPD (DI)(AX*8), Y9; \
	VMOVUPD (R8)(AX*8), Y10; \
	VMULPD  Y10, Y8, Y11; \
	VMULPD  Y10, Y9, Y12; \
	VADDPD  Y11, Y0, Y0; \
	VADDPD  Y12, Y4, Y4; \
	VMOVUPD (R9)(AX*8), Y10; \
	VMULPD  Y10, Y8, Y11; \
	VMULPD  Y10, Y9, Y12; \
	VADDPD  Y11, Y1, Y1; \
	VADDPD  Y12, Y5, Y5; \
	VMOVUPD (R10)(AX*8), Y10; \
	VMULPD  Y10, Y8, Y11; \
	VMULPD  Y10, Y9, Y12; \
	VADDPD  Y11, Y2, Y2; \
	VADDPD  Y12, Y6, Y6; \
	VMOVUPD (R11)(AX*8), Y10; \
	VMULPD  Y10, Y8, Y11; \
	VMULPD  Y10, Y9, Y12; \
	VADDPD  Y11, Y3, Y3; \
	VADDPD  Y12, Y7, Y7; \
	ADDQ    $4, AX

// func dotTile2x4(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)
TEXT ·dotTile2x4(SB), NOSPLIT, $0-64
	DOT2X4_ARGS
	MOVQ out+56(FP), DX
	CMPQ CX, $0
	JLE  reduce

loop:
	DOT2X4_STEP
	CMPQ AX, CX
	JLT  loop

reduce:
	REDUCE4(Y0, Y1, Y2, Y3)
	VMOVUPD Y12, 0(DX)
	REDUCE4(Y4, Y5, Y6, Y7)
	VMOVUPD Y12, 32(DX)
	VZEROUPPER
	RET

// func dotTile2x4Out(a0, a1, b0, b1, b2, b3 *float64, n, j int, o0, o1 *rowOut)
//
// The chains of dotTile2x4, then rowOut's store of columns [j, j+4) of
// both rows, four lanes at a time: v = p + bias (VADDPD), Pre = v when
// present, mask = v > 0 (VCMPPD GT_OQ: false for NaN and ±0), then
// v & mask (VANDPD) without a residual, or mask ? v + r : r (VBLENDVPD)
// with one. A nil bias is the plain store of p.
TEXT ·dotTile2x4Out(SB), NOSPLIT, $0-80
	DOT2X4_ARGS
	CMPQ CX, $0
	JLE  reduce

loop:
	DOT2X4_STEP
	CMPQ AX, CX
	JLT  loop

reduce:
	REDUCE4(Y0, Y1, Y2, Y3)
	VMOVAPD Y12, Y0
	REDUCE4(Y4, Y5, Y6, Y7)
	VMOVAPD Y12, Y1
	MOVQ    j+56(FP), AX
	MOVQ    o0+64(FP), DX
	MOVQ    o1+72(FP), BX
	MOVQ    rowOut_d(DX), SI
	MOVQ    rowOut_d(BX), DI
	MOVQ    rowOut_bias(DX), R8
	TESTQ   R8, R8
	JZ      store
	VADDPD  (R8)(AX*8), Y0, Y0
	VADDPD  (R8)(AX*8), Y1, Y1
	MOVQ    rowOut_pre(DX), R9
	TESTQ   R9, R9
	JZ      select
	VMOVUPD Y0, (R9)(AX*8)
	MOVQ    rowOut_pre(BX), R9
	VMOVUPD Y1, (R9)(AX*8)

select:
	VXORPD  Y2, Y2, Y2
	VCMPPD  $0x1e, Y2, Y0, Y3
	VCMPPD  $0x1e, Y2, Y1, Y4
	MOVQ    rowOut_res(DX), R9
	TESTQ   R9, R9
	JZ      relu
	VMOVUPD (R9)(AX*8), Y5
	VADDPD  Y5, Y0, Y6
	VBLENDVPD Y3, Y6, Y5, Y0
	MOVQ    rowOut_res(BX), R9
	VMOVUPD (R9)(AX*8), Y5
	VADDPD  Y5, Y1, Y6
	VBLENDVPD Y4, Y6, Y5, Y1
	JMP     store

relu:
	VANDPD Y3, Y0, Y0
	VANDPD Y4, Y1, Y1

store:
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y1, (DI)(AX*8)
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

// The constants of the FMA branch of math/exp_amd64.s, each four times over
// so that a lane-wise instruction can read them from memory, then −708 (the
// tile's lower bound) and the integer 1023 (the exponent bias).
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

#define QUAD(off, v) \
	DATA expq<>+(off)(SB)/8, v; \
	DATA expq<>+(off+8)(SB)/8, v; \
	DATA expq<>+(off+16)(SB)/8, v; \
	DATA expq<>+(off+24)(SB)/8, v

QUAD(0, $LOG2E)
QUAD(32, $LN2U)
QUAD(64, $LN2L)
QUAD(96, $0.0625)
QUAD(128, $2.4801587301587301587e-5)
QUAD(160, $1.9841269841269841270e-4)
QUAD(192, $1.3888888888888888889e-3)
QUAD(224, $8.3333333333333333333e-3)
QUAD(256, $4.1666666666666666667e-2)
QUAD(288, $1.6666666666666666667e-1)
QUAD(320, $0.5)
QUAD(352, $1.0)
QUAD(384, $2.0)
QUAD(416, $-708.0)
QUAD(448, $1023)
GLOBL expq<>(SB), RODATA, $480

// func expTile(dst, x []float64, m, z float64) (n int, sum float64)
//
// Per quad at AX: d = min(0, x − m) (VMINPD with +0 first: d for NaN and
// −0, as Go's d > 0 → 0); a quad with a lane where !(d ≥ −708) (below, or
// NaN) ends the tile. Then, step for step with the FMA branch of
// math/exp_amd64.s: k = round(d·LOG2E) (VCVTPD2DQ, VCVTDQ2PD), two fused
// reductions d −= k·LN2U, d −= k·LN2L (VFNMADD231PD), d ×= 1/16, the
// Horner chain p = p·d + c (VFMADD213PD) down to 1, four squarings d ×= p
// with p = d + 2 (the last one fused with the final + 1), and the scale
// by (k + 1023) << 52. For d ≥ −708, k ≥ −1021, so the biased exponent
// stays normal and none of that branch's range checks fires. The sum z
// (X14) takes the four lanes in ascending order, one scalar add each.
TEXT ·expTile(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), R8
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	ANDQ         $-4, CX
	VBROADCASTSD m+48(FP), Y15
	VMOVSD       z+56(FP), X14
	VXORPD       Y13, Y13, Y13
	XORQ         AX, AX
	CMPQ         AX, CX
	JGE          done

quad:
	VMOVUPD     (SI)(AX*8), Y0
	VSUBPD      Y15, Y0, Y0
	VMINPD      Y0, Y13, Y0
	VCMPPD      $0x19, expq<>+416(SB), Y0, Y1
	VMOVMSKPD   Y1, BX
	TESTL       BX, BX
	JNZ         done
	VMULPD      expq<>+0(SB), Y0, Y1
	VCVTPD2DQY  Y1, X2
	VCVTDQ2PD   X2, Y1
	VFNMADD231PD expq<>+32(SB), Y1, Y0
	VFNMADD231PD expq<>+64(SB), Y1, Y0
	VMULPD      expq<>+96(SB), Y0, Y0
	VMOVUPD     expq<>+128(SB), Y1
	VFMADD213PD expq<>+160(SB), Y0, Y1
	VFMADD213PD expq<>+192(SB), Y0, Y1
	VFMADD213PD expq<>+224(SB), Y0, Y1
	VFMADD213PD expq<>+256(SB), Y0, Y1
	VFMADD213PD expq<>+288(SB), Y0, Y1
	VFMADD213PD expq<>+320(SB), Y0, Y1
	VFMADD213PD expq<>+352(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expq<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expq<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expq<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expq<>+384(SB), Y0, Y1
	VFMADD213PD expq<>+352(SB), Y1, Y0
	VPMOVSXDQ   X2, Y3
	VPADDQ      expq<>+448(SB), Y3, Y3
	VPSLLQ      $52, Y3, Y3
	VMULPD      Y3, Y0, Y0
	TESTQ       R8, R8
	JZ          sum
	VMOVUPD     Y0, (DI)(AX*8)

sum:
	VADDSD       X0, X14, X14
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X14, X14
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X14, X14
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X14, X14
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLT          quad

done:
	MOVQ       AX, n+64(FP)
	VMOVSD     X14, sum+72(FP)
	VZEROUPPER
	RET

// func maxTile(x []float64) float64
//
// Y0 starts as x[0] in every lane; VMAXPD with the new quad first keeps
// the lane unless the new value is greater (it returns the second operand
// for NaN and for equal zeros). VMAXSD joins the lanes in order the same
// way.
TEXT ·maxTile(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	ANDQ         $-4, CX
	VBROADCASTSD (SI), Y0
	XORQ         AX, AX

quad:
	VMOVUPD (SI)(AX*8), Y1
	VMAXPD  Y0, Y1, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     quad

	VEXTRACTF128 $1, Y0, X1
	VPERMILPD    $1, X0, X2
	VMAXSD       X0, X2, X0
	VMAXSD       X0, X1, X0
	VPERMILPD    $1, X1, X2
	VMAXSD       X0, X2, X0
	VMOVSD       X0, ret+24(FP)
	VZEROUPPER
	RET

// func addTile(dst, x []float64)
TEXT ·addTile(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	ANDQ $-4, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  done

quad:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     quad

done:
	VZEROUPPER
	RET

// func scaleTile(x []float64, s float64)
TEXT ·scaleTile(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y1
	ANDQ         $-4, CX
	XORQ         AX, AX
	CMPQ         AX, CX
	JGE          done

quad:
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     quad

done:
	VZEROUPPER
	RET

// func reluTile(x []float64)
//
// x = x > 0 ? x : +0 lane-wise: VCMPPD GT_OQ against +0 (false for NaN and
// ±0) and VANDPD, the bit mask ReLU takes.
TEXT ·reluTile(SB), NOSPLIT, $0-24
	MOVQ   x_base+0(FP), DI
	MOVQ   x_len+8(FP), CX
	ANDQ   $-4, CX
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    done

quad:
	VMOVUPD (DI)(AX*8), Y0
	VCMPPD  $0x1e, Y1, Y0, Y2
	VANDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     quad

done:
	VZEROUPPER
	RET

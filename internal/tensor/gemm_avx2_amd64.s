//go:build !noasm

#include "textflag.h"

// AVX2+FMA microkernels for the fast numerics tier (see numerics.go).
//
// The axpy kernels take any n >= 0: after the 8-wide body they finish
// the last n%8 elements with VFMADD231SS in the same term order as the
// VFMADD231PS lanes, so every element sees the identical fused
// operation sequence wherever it sits in the span. The dot kernels
// require n to be a multiple of 8; Go callers add the scalar tail.
// VFMADD231PS fuses the multiply and add with
// a single rounding and the reductions keep 8 lanes (or several
// accumulator registers), so results differ from the scalar exact
// tier in the last ULPs — that is the fast tier's documented
// contract. For a fixed length n the instruction sequence is fixed,
// so the fast tier is still bit-deterministic call to call.
//
// Go assembler operand order: VFMADD231PS src2, src1, dst computes
// dst += src1 * src2.

// func axpy4FMA(dst, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int)
// dst[x] += a0*b0[x] + a1*b1[x] + a2*b2[x] + a3*b3[x] for x in [0, n).
TEXT ·axpy4FMA(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	VBROADCASTSS a0+40(FP), Y0
	VBROADCASTSS a1+44(FP), Y1
	VBROADCASTSS a2+48(FP), Y2
	VBROADCASTSS a3+52(FP), Y3
	MOVQ n+56(FP), CX
	XORQ AX, AX

axpy4_loop16:
	CMPQ CX, $16
	JLT  axpy4_loop8
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VFMADD231PS (SI)(AX*4), Y0, Y4
	VFMADD231PS 32(SI)(AX*4), Y0, Y5
	VFMADD231PS (R8)(AX*4), Y1, Y4
	VFMADD231PS 32(R8)(AX*4), Y1, Y5
	VFMADD231PS (R9)(AX*4), Y2, Y4
	VFMADD231PS 32(R9)(AX*4), Y2, Y5
	VFMADD231PS (R10)(AX*4), Y3, Y4
	VFMADD231PS 32(R10)(AX*4), Y3, Y5
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  axpy4_loop16

axpy4_loop8:
	CMPQ CX, $8
	JLT  axpy4_loop1
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS (SI)(AX*4), Y0, Y4
	VFMADD231PS (R8)(AX*4), Y1, Y4
	VFMADD231PS (R9)(AX*4), Y2, Y4
	VFMADD231PS (R10)(AX*4), Y3, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  axpy4_loop8

axpy4_loop1:
	TESTQ CX, CX
	JZ    axpy4_done
	VMOVSS (DI)(AX*4), X4
	VFMADD231SS (SI)(AX*4), X0, X4
	VFMADD231SS (R8)(AX*4), X1, X4
	VFMADD231SS (R9)(AX*4), X2, X4
	VFMADD231SS (R10)(AX*4), X3, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ AX
	DECQ CX
	JMP  axpy4_loop1

axpy4_done:
	VZEROUPPER
	RET

// func axpyFMA(dst, b *float32, a float32, n int)
// dst[x] += a*b[x] for x in [0, n).
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSS a+16(FP), Y0
	MOVQ n+24(FP), CX
	XORQ AX, AX

axpy_loop16:
	CMPQ CX, $16
	JLT  axpy_loop8
	VMOVUPS (DI)(AX*4), Y1
	VMOVUPS 32(DI)(AX*4), Y2
	VFMADD231PS (SI)(AX*4), Y0, Y1
	VFMADD231PS 32(SI)(AX*4), Y0, Y2
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  axpy_loop16

axpy_loop8:
	CMPQ CX, $8
	JLT  axpy_loop1
	VMOVUPS (DI)(AX*4), Y1
	VFMADD231PS (SI)(AX*4), Y0, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  axpy_loop8

axpy_loop1:
	TESTQ CX, CX
	JZ    axpy_done
	VMOVSS (DI)(AX*4), X1
	VFMADD231SS (SI)(AX*4), X0, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	DECQ CX
	JMP  axpy_loop1

axpy_done:
	VZEROUPPER
	RET

// func dot4FMA(a, b0, b1, b2, b3 *float32, n int, out *float32)
// out[q] = Σ_x a[x]*bq[x] for x in [0, n), q in 0..3.
// Eight YMM accumulators (two per output) hide FMA latency; the pairs
// are combined and horizontally reduced at the end.
TEXT ·dot4FMA(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX

dot4_loop16:
	CMPQ CX, $16
	JLT  dot4_loop8
	VMOVUPS (DI)(AX*4), Y8
	VMOVUPS 32(DI)(AX*4), Y9
	VFMADD231PS (SI)(AX*4), Y8, Y0
	VFMADD231PS 32(SI)(AX*4), Y9, Y4
	VFMADD231PS (R8)(AX*4), Y8, Y1
	VFMADD231PS 32(R8)(AX*4), Y9, Y5
	VFMADD231PS (R9)(AX*4), Y8, Y2
	VFMADD231PS 32(R9)(AX*4), Y9, Y6
	VFMADD231PS (R10)(AX*4), Y8, Y3
	VFMADD231PS 32(R10)(AX*4), Y9, Y7
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  dot4_loop16

dot4_loop8:
	CMPQ CX, $8
	JLT  dot4_reduce
	VMOVUPS (DI)(AX*4), Y8
	VFMADD231PS (SI)(AX*4), Y8, Y0
	VFMADD231PS (R8)(AX*4), Y8, Y1
	VFMADD231PS (R9)(AX*4), Y8, Y2
	VFMADD231PS (R10)(AX*4), Y8, Y3
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  dot4_loop8

dot4_reduce:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VEXTRACTF128 $1, Y0, X8
	VADDPS X8, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, (DX)

	VEXTRACTF128 $1, Y1, X8
	VADDPS X8, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VMOVSS X1, 4(DX)

	VEXTRACTF128 $1, Y2, X8
	VADDPS X8, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VMOVSS X2, 8(DX)

	VEXTRACTF128 $1, Y3, X8
	VADDPS X8, X3, X3
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3
	VMOVSS X3, 12(DX)

	VZEROUPPER
	RET

// func dotFMA(a, b *float32, n int) float32
// Returns Σ_x a[x]*b[x] for x in [0, n), four YMM accumulators.
TEXT ·dotFMA(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

dot_loop32:
	CMPQ CX, $32
	JLT  dot_loop8
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VMOVUPS 64(DI)(AX*4), Y6
	VMOVUPS 96(DI)(AX*4), Y7
	VFMADD231PS (SI)(AX*4), Y4, Y0
	VFMADD231PS 32(SI)(AX*4), Y5, Y1
	VFMADD231PS 64(SI)(AX*4), Y6, Y2
	VFMADD231PS 96(SI)(AX*4), Y7, Y3
	ADDQ $32, AX
	SUBQ $32, CX
	JMP  dot_loop32

dot_loop8:
	CMPQ CX, $8
	JLT  dot_reduce
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS (SI)(AX*4), Y4, Y0
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  dot_loop8

dot_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

#include "textflag.h"

// SSE2 inner loops of kernels.go. Each lane performs exactly the IEEE
// multiplies and adds of the matching Go loop (dotGeneric, axpyGeneric,
// axpy2Generic), in the same association and without FMA, so results
// are bit-identical to them. All vector loads and stores are unaligned
// (MOVUPD): slices of a row may start at any element. Callers pass
// n ≥ 1.

// func dotSSE2(a, b *float64, n int) float64
//
// X0 holds the accumulators (s0, s1) and X1 holds (s2, s3); every pass of
// the main loop adds a[i:i+4]·b[i:i+4] lane-wise. The n mod 4 tail goes
// into s0 alone, and the result is (s0+s2)+(s1+s3).
TEXT ·dotSSE2(SB), NOSPLIT, $0-32
	MOVQ  a+0(FP), SI
	MOVQ  b+8(FP), DI
	MOVQ  n+16(FP), CX
	XORPD X0, X0
	XORPD X1, X1
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    tail

loop4:
	MOVUPD (SI), X2
	MOVUPD (DI), X3
	MULPD  X3, X2
	ADDPD  X2, X0
	MOVUPD 16(SI), X4
	MOVUPD 16(DI), X5
	MULPD  X5, X4
	ADDPD  X4, X1
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   BX
	JNZ    loop4

tail:
	ANDQ $3, CX
	JZ   sum

tail1:
	MOVSD (SI), X2
	MULSD (DI), X2
	ADDSD X2, X0
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   tail1

sum:
	ADDPD    X1, X0
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	ADDSD    X1, X0
	MOVSD    X0, ret+24(FP)
	RET

// func axpySSE2(dst *float64, a float64, x *float64, n int)
//
// dst[i] += a·x[i], four elements per pass, then a pair, then one.
TEXT ·axpySSE2(SB), NOSPLIT, $0-32
	MOVQ     dst+0(FP), DI
	MOVSD    a+8(FP), X0
	UNPCKLPD X0, X0
	MOVQ     x+16(FP), SI
	MOVQ     n+24(FP), CX
	MOVQ     CX, BX
	SHRQ     $2, BX
	JZ       tail2

loop4:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MULPD  X0, X1
	MULPD  X0, X2
	MOVUPD (DI), X3
	MOVUPD 16(DI), X4
	ADDPD  X1, X3
	ADDPD  X2, X4
	MOVUPD X3, (DI)
	MOVUPD X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   BX
	JNZ    loop4

tail2:
	TESTQ  $2, CX
	JZ     tail1
	MOVUPD (SI), X1
	MULPD  X0, X1
	MOVUPD (DI), X3
	ADDPD  X1, X3
	MOVUPD X3, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI

tail1:
	TESTQ $1, CX
	JZ    done
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X3
	ADDSD X1, X3
	MOVSD X3, (DI)

done:
	RET

// func axpy2SSE2(dst *float64, a0 float64, x0 *float64, a1 float64, x1 *float64, n int)
//
// dst[i] += a0·x0[i] + a1·x1[i], associated as dst[i] + (a0·x0[i] +
// a1·x1[i]); four elements per pass, then a pair, then one.
TEXT ·axpy2SSE2(SB), NOSPLIT, $0-48
	MOVQ     dst+0(FP), DI
	MOVSD    a0+8(FP), X0
	UNPCKLPD X0, X0
	MOVQ     x0+16(FP), SI
	MOVSD    a1+24(FP), X1
	UNPCKLPD X1, X1
	MOVQ     x1+32(FP), DX
	MOVQ     n+40(FP), CX
	MOVQ     CX, BX
	SHRQ     $2, BX
	JZ       tail2

loop4:
	MOVUPD (SI), X2
	MOVUPD (DX), X3
	MULPD  X0, X2
	MULPD  X1, X3
	ADDPD  X3, X2
	MOVUPD (DI), X4
	ADDPD  X2, X4
	MOVUPD X4, (DI)
	MOVUPD 16(SI), X5
	MOVUPD 16(DX), X6
	MULPD  X0, X5
	MULPD  X1, X6
	ADDPD  X6, X5
	MOVUPD 16(DI), X7
	ADDPD  X5, X7
	MOVUPD X7, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	DECQ   BX
	JNZ    loop4

tail2:
	TESTQ  $2, CX
	JZ     tail1
	MOVUPD (SI), X2
	MOVUPD (DX), X3
	MULPD  X0, X2
	MULPD  X1, X3
	ADDPD  X3, X2
	MOVUPD (DI), X4
	ADDPD  X2, X4
	MOVUPD X4, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI

tail1:
	TESTQ $1, CX
	JZ    done
	MOVSD (SI), X2
	MOVSD (DX), X3
	MULSD X0, X2
	MULSD X1, X3
	ADDSD X3, X2
	MOVSD (DI), X4
	ADDSD X2, X4
	MOVSD X4, (DI)

done:
	RET

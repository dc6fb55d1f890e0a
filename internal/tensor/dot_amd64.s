//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotPanel4x8(c []float64, ldc int, a []float64, m, k int, panel, bias []float64)
//
// Y0..Y7 accumulate a 4-row × 8-column tile, rows in pairs of registers
// (Y0,Y1 row 0 … Y6,Y7 row 3), one output element a lane. Per p the panel
// row (8 values of Bt) is in Y8,Y9 and A[i][p] is broadcast into Y10; the
// product goes through Y11 so that multiply and add round separately.
TEXT ·dotPanel4x8(SB), NOSPLIT, $0-120
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8
	MOVQ a_base+32(FP), SI
	MOVQ m+56(FP), CX
	MOVQ k+64(FP), R9
	SHLQ $3, R9
	MOVQ panel_base+72(FP), BX
	MOVQ bias_base+96(FP), DX

rows:
	TESTQ CX, CX
	JZ    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (SI)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	XORQ AX, AX

loop:
	CMPQ AX, R9
	JAE  store
	VMOVUPD      (BX)(AX*8), Y8
	VMOVUPD      32(BX)(AX*8), Y9
	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1
	VBROADCASTSD (R11)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3
	VBROADCASTSD (R12)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5
	VBROADCASTSD (R13)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7
	ADDQ         $8, AX
	JMP          loop

store:
	LEAQ  (DI)(R8*1), R11
	LEAQ  (R11)(R8*1), R12
	LEAQ  (R12)(R8*1), R13
	TESTQ DX, DX
	JNZ   withbias

	// c += s
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  (R11), Y2, Y2
	VADDPD  32(R11), Y3, Y3
	VADDPD  (R12), Y4, Y4
	VADDPD  32(R12), Y5, Y5
	VADDPD  (R13), Y6, Y6
	VADDPD  32(R13), Y7, Y7
	JMP     put

withbias:
	// c = s + bias
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7

put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	LEAQ    (SI)(R9*4), SI
	LEAQ    (DI)(R8*4), DI
	SUBQ    $4, CX
	JMP     rows

done:
	VZEROUPPER
	RET

// Rows of Bt, four at a time, for dotRow: GROUP2 multiplies the A pair in
// Y4 (A[p], A[p+1], A[p], A[p+1]) into rows r0..r3 of Bt at R (r1 at
// R+R9, r2 at R+2·R9, r3 at R+R10) and adds the four p products, then the
// four p+1 products, to ACC, one row a lane. Rows r0|r2 and r1|r3 share a
// register, so the unpacks put the lanes in row order.
#define GROUP2(R, ACC) \
	VMOVUPD     (R), X5; \
	VINSERTF128 $1, (R)(R9*2), Y5, Y5; \
	VMOVUPD     (R)(R9*1), X6; \
	VINSERTF128 $1, (R)(R10*1), Y6, Y6; \
	VMULPD      Y5, Y4, Y5; \
	VMULPD      Y6, Y4, Y6; \
	VUNPCKLPD   Y6, Y5, Y7; \
	VUNPCKHPD   Y6, Y5, Y5; \
	VADDPD      Y7, ACC, ACC; \
	VADDPD      Y5, ACC, ACC

// GROUP1 is GROUP2's odd-k tail: the last p alone, A[p] broadcast in Y4,
// the four Bt values gathered into one register in row order.
#define GROUP1(R, ACC) \
	VMOVSD      (R), X5; \
	VMOVHPD     (R)(R9*1), X5, X5; \
	VMOVSD      (R)(R9*2), X6; \
	VMOVHPD     (R)(R10*1), X6, X6; \
	VINSERTF128 $1, X6, Y5, Y5; \
	VMULPD      Y5, Y4, Y5; \
	VADDPD      Y5, ACC, ACC

// func dotRow(c, a []float64, k int, bt []float64, n int, bias []float64)
//
// One row A[0:k] against rows 0..n-1 of Bt (row stride k, n a multiple of
// 8, k ≥ 2): sixteen Bt rows a pass while n allows, then eight. Y0..Y3
// accumulate sixteen outputs, one a lane; each step adds the products of
// p and then p+1, so every output is summed over p ascending from zero,
// VMULPD then VADDPD, never fused. An odd k's last p follows the pairs.
// The store adds s to c[j], or with bias non-nil stores s + bias[j] there.
//
// Registers: DI c, DX bias (0 for nil), SI A, BX the pass's first Bt row,
// R8 columns left, R9 the Bt row stride in bytes, R10 three strides,
// R11/R12/R13/AX the moving pointers of Bt rows 0/4/8/12 of the pass,
// CX the p pairs left.
TEXT ·dotRow(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ k+48(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ bt_base+56(FP), BX
	MOVQ n+80(FP), R8
	MOVQ bias_base+88(FP), DX

pass16:
	CMPQ   R8, $16
	JB     pass8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   a_base+24(FP), SI
	MOVQ   BX, R11
	LEAQ   (BX)(R9*4), R12
	LEAQ   (R12)(R9*4), R13
	LEAQ   (R13)(R9*4), AX
	MOVQ   k+48(FP), CX
	SHRQ   $1, CX

step16:
	VBROADCASTF128 (SI), Y4
	GROUP2(R11, Y0)
	GROUP2(R12, Y1)
	GROUP2(R13, Y2)
	GROUP2(AX, Y3)
	ADDQ           $16, SI
	ADDQ           $16, R11
	ADDQ           $16, R12
	ADDQ           $16, R13
	ADDQ           $16, AX
	DECQ           CX
	JNZ            step16

	TESTQ        $1, k+48(FP)
	JZ           store16
	VBROADCASTSD (SI), Y4
	GROUP1(R11, Y0)
	GROUP1(R12, Y1)
	GROUP1(R13, Y2)
	GROUP1(AX, Y3)

store16:
	TESTQ  DX, DX
	JZ     acc16
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD 64(DX), Y2, Y2
	VADDPD 96(DX), Y3, Y3
	ADDQ   $128, DX
	JMP    put16

acc16:
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3

put16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (BX)(R9*8), BX
	LEAQ    (BX)(R9*8), BX
	SUBQ    $16, R8
	JMP     pass16

pass8:
	TESTQ  R8, R8
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   a_base+24(FP), SI
	MOVQ   BX, R11
	LEAQ   (BX)(R9*4), R12
	MOVQ   k+48(FP), CX
	SHRQ   $1, CX

step8:
	VBROADCASTF128 (SI), Y4
	GROUP2(R11, Y0)
	GROUP2(R12, Y1)
	ADDQ           $16, SI
	ADDQ           $16, R11
	ADDQ           $16, R12
	DECQ           CX
	JNZ            step8

	TESTQ        $1, k+48(FP)
	JZ           store8
	VBROADCASTSD (SI), Y4
	GROUP1(R11, Y0)
	GROUP1(R12, Y1)

store8:
	TESTQ  DX, DX
	JZ     acc8
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	JMP    put8

acc8:
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1

put8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

done:
	VZEROUPPER
	RET

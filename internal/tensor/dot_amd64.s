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

// func dotPanel4x8(c []float64, ldc int, a []float64, ai, ap, m, k int, panel []float64, ldp int, bias []float64)
//
// Y0..Y7 accumulate a 4-row × 8-column tile, rows in pairs of registers
// (Y0,Y1 row 0 … Y6,Y7 row 3), one output element a lane. Per p the panel
// row (8 values of B) is in Y8,Y9 and A(i, p) is broadcast into Y10; the
// product goes through Y11 so that multiply and add round separately.
//
// Registers: DI the tile's first c row, R8 ldc in bytes, SI A(i, 0) of the
// tile's first row, R10 ai in bytes, R11 three of them, R9 ap in bytes,
// R12 ldp in bytes, CX rows left, DX bias (0 for nil), AX and BX the moving
// A and panel pointers, R13 the p left.
TEXT ·dotPanel4x8(SB), NOSPLIT, $0-144
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8
	MOVQ a_base+32(FP), SI
	MOVQ ai+56(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ ap+64(FP), R9
	SHLQ $3, R9
	MOVQ m+72(FP), CX
	MOVQ ldp+112(FP), R12
	SHLQ $3, R12
	MOVQ bias_base+120(FP), DX

rows:
	TESTQ  CX, CX
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   panel_base+88(FP), BX
	MOVQ   k+80(FP), R13

loop:
	TESTQ        R13, R13
	JZ           store
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1
	VBROADCASTSD (AX)(R10*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3
	VBROADCASTSD (AX)(R10*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7
	ADDQ         R9, AX
	ADDQ         R12, BX
	DECQ         R13
	JMP          loop

store:
	LEAQ  (DI)(R8*1), R13
	LEAQ  (R13)(R8*1), AX
	LEAQ  (AX)(R8*1), BX
	TESTQ DX, DX
	JNZ   withbias

	// c += s
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  (R13), Y2, Y2
	VADDPD  32(R13), Y3, Y3
	VADDPD  (AX), Y4, Y4
	VADDPD  32(AX), Y5, Y5
	VADDPD  (BX), Y6, Y6
	VADDPD  32(BX), Y7, Y7
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
	VMOVUPD Y2, (R13)
	VMOVUPD Y3, 32(R13)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (BX)
	VMOVUPD Y7, 32(BX)
	LEAQ    (SI)(R10*4), SI
	LEAQ    (DI)(R8*4), DI
	SUBQ    $4, CX
	JMP     rows

done:
	VZEROUPPER
	RET

// ONEROW(OFF, ACC) adds A(p)·panel[p][OFF/8 : OFF/8+4] to ACC, A(p) being
// broadcast in Y4: VMULPD then VADDPD, never fused.
#define ONEROW(OFF, ACC) \
	VMULPD OFF(BX), Y4, Y5; \
	VADDPD Y5, ACC, ACC

// func dotPanel1x8(c, a []float64, ap, k int, panel []float64, ldp, n int, bias []float64)
//
// dotPanel4x8 for one row: c[j] for j < n (n a multiple of 8) gains
// s = Σ_p A(p)·panel[p*ldp+j], A(p) = a[p*ap], over p ascending from zero,
// or with bias non-nil becomes s + bias[j]. Sixteen columns a pass while n
// allows, then eight; Y0..Y3 hold them, one output a lane.
//
// Registers: DI c, DX bias (0 for nil), R8 columns left, R9 ap in bytes,
// R12 ldp in bytes, R10 the pass's first panel column, AX and BX the moving
// A and panel pointers, R13 the p left.
TEXT ·dotPanel1x8(SB), NOSPLIT, $0-128
	MOVQ c_base+0(FP), DI
	MOVQ ap+48(FP), R9
	SHLQ $3, R9
	MOVQ panel_base+64(FP), R10
	MOVQ ldp+88(FP), R12
	SHLQ $3, R12
	MOVQ n+96(FP), R8
	MOVQ bias_base+104(FP), DX

one16:
	CMPQ   R8, $16
	JB     one8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   a_base+24(FP), AX
	MOVQ   R10, BX
	MOVQ   k+56(FP), R13

step16:
	TESTQ        R13, R13
	JZ           store16
	VBROADCASTSD (AX), Y4
	ONEROW(0, Y0)
	ONEROW(32, Y1)
	ONEROW(64, Y2)
	ONEROW(96, Y3)
	ADDQ         R9, AX
	ADDQ         R12, BX
	DECQ         R13
	JMP          step16

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
	ADDQ    $128, R10
	SUBQ    $16, R8
	JMP     one16

one8:
	TESTQ  R8, R8
	JZ     done1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   a_base+24(FP), AX
	MOVQ   R10, BX
	MOVQ   k+56(FP), R13

step8:
	TESTQ        R13, R13
	JZ           store8
	VBROADCASTSD (AX), Y4
	ONEROW(0, Y0)
	ONEROW(32, Y1)
	ADDQ         R9, AX
	ADDQ         R12, BX
	DECQ         R13
	JMP          step8

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

done1:
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

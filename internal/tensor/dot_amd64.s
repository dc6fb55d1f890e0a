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

//go:build amd64 && !purego

#include "textflag.h"

// func adamAVX2(value, m, v, grad *float64, n int, k *adamCoef)
//
// adamGo's update four weights a step, n of them (n a multiple of 4). The
// coefficients β1, 1−β1, β2, 1−β2, the bias corrections bc1 and bc2, the
// learning rate and ε are broadcast into Y8..Y15 once. VMULPD, VADDPD,
// VSUBPD, VDIVPD and VSQRTPD round as MULSD, ADDSD, SUBSD, DIVSD and SQRTSD
// do, and nothing is fused, so each lane equals adamGo's scalar update.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ value+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	VBROADCASTSD 0(AX), Y8   // β1
	VBROADCASTSD 8(AX), Y9   // 1 − β1
	VBROADCASTSD 16(AX), Y10 // β2
	VBROADCASTSD 24(AX), Y11 // 1 − β2
	VBROADCASTSD 32(AX), Y12 // bc1
	VBROADCASTSD 40(AX), Y13 // bc2
	VBROADCASTSD 48(AX), Y14 // lr
	VBROADCASTSD 56(AX), Y15 // ε
	XORQ AX, AX

loop:
	CMPQ    AX, CX
	JAE     done
	VMOVUPD (BX)(AX*8), Y0
	VMULPD  (SI)(AX*8), Y8, Y1 // β1·m
	VMULPD  Y0, Y9, Y2         // (1−β1)·g
	VADDPD  Y2, Y1, Y1         // m
	VMOVUPD Y1, (SI)(AX*8)
	VMULPD  (DX)(AX*8), Y10, Y3 // β2·v
	VMULPD  Y0, Y11, Y4         // (1−β2)·g
	VMULPD  Y0, Y4, Y4          // ·g
	VADDPD  Y4, Y3, Y3          // v
	VMOVUPD Y3, (DX)(AX*8)
	VDIVPD  Y12, Y1, Y1         // m̂ = m / bc1
	VDIVPD  Y13, Y3, Y3         // v̂ = v / bc2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3         // √v̂ + ε
	VMULPD  Y1, Y14, Y1         // lr·m̂
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	RET

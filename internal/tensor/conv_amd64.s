//go:build amd64 && !purego

#include "textflag.h"

// func convTapsAVX2(gk, kt, x, gx, grad *float64, ocb, c, nky, nkx, tky, xky, tci, xci int)
//
// One output position of conv2DBackward with every channel's gradient
// non-zero (convTapsLanes). For each tap (ci, ky, kx ascending) x's value is
// broadcast into Y0 and, four channels a lane group, gk += g·x (VMULPD then
// VADDPD, never fused); with gx non-nil the products g·k of the group are
// formed by one VMULPD and added lane by lane, o ascending, to the tap's
// scalar sum s in X5, which starts at +0 and is then added to gx. ocb is the
// channel count in bytes; tky/xky skip from the end of a kx run to the next
// ky's first tap, tci/xci from the end of a ci's last ky to the next ci's
// first tap, all in bytes.
//
// Registers: R8 gk, R9 kt − gk, R10 x, R11 gx (0 for nil), R12 grad, AX the
// tap's byte offset into gk and kt, BX its byte offset into x and gx, R13
// the lane group's gk pointer, CX its byte offset into g, DX/DI/SI the kx,
// ky and ci taps left.
TEXT ·convTapsAVX2(SB), NOSPLIT, $0-104
	MOVQ gk+0(FP), R8
	MOVQ kt+8(FP), R9
	SUBQ R8, R9
	MOVQ x+16(FP), R10
	MOVQ gx+24(FP), R11
	MOVQ grad+32(FP), R12
	XORQ AX, AX
	XORQ BX, BX
	MOVQ c+48(FP), SI

ci:
	TESTQ SI, SI
	JZ    done
	MOVQ  nky+56(FP), DI

ky:
	TESTQ DI, DI
	JZ    ciend
	MOVQ  nkx+64(FP), DX

kx:
	TESTQ        DX, DX
	JZ           kyend
	VBROADCASTSD (R10)(BX*1), Y0
	VXORPD       X5, X5, X5
	LEAQ         (R8)(AX*1), R13
	XORQ         CX, CX

lane:
	VMOVUPD      (R12)(CX*1), Y1
	VMULPD       Y0, Y1, Y2
	VMOVUPD      (R13), Y3
	VADDPD       Y2, Y3, Y3
	VMOVUPD      Y3, (R13)
	TESTQ        R11, R11
	JZ           nextlane
	VMULPD       (R13)(R9*1), Y1, Y4
	VADDSD       X4, X5, X5
	VPERMILPD    $1, X4, X6
	VADDSD       X6, X5, X5
	VEXTRACTF128 $1, Y4, X7
	VADDSD       X7, X5, X5
	VPERMILPD    $1, X7, X6
	VADDSD       X6, X5, X5

nextlane:
	ADDQ $32, R13
	ADDQ $32, CX
	CMPQ CX, ocb+40(FP)
	JB   lane

	TESTQ  R11, R11
	JZ     nexttap
	VMOVSD (R11)(BX*1), X6
	VADDSD X5, X6, X6
	VMOVSD X6, (R11)(BX*1)

nexttap:
	ADDQ ocb+40(FP), AX
	ADDQ $8, BX
	DECQ DX
	JMP  kx

kyend:
	ADDQ tky+72(FP), AX
	ADDQ xky+80(FP), BX
	DECQ DI
	JMP  ky

ciend:
	ADDQ tci+88(FP), AX
	ADDQ xci+96(FP), BX
	DECQ SI
	JMP  ci

done:
	VZEROUPPER
	RET

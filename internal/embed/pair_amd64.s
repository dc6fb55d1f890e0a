//go:build amd64 && !purego

#include "textflag.h"

// σ's constants 6, −6, 12 and 1024, then the labels (1, 0, 0, 0) of
// targets 0–3 (the context is target 0), whose first is also σ's 1.
DATA pairConst<>+0(SB)/8, $6.0
DATA pairConst<>+8(SB)/8, $-6.0
DATA pairConst<>+16(SB)/8, $12.0
DATA pairConst<>+24(SB)/8, $1024.0
DATA pairConst<>+32(SB)/8, $1.0
DATA pairConst<>+40(SB)/8, $0.0
DATA pairConst<>+48(SB)/8, $0.0
DATA pairConst<>+56(SB)/8, $0.0
GLOBL pairConst<>(SB), RODATA|NOPTR, $64

// SIGMA(D) replaces each lane x of D by sigmoidApprox(x): the index
// int((x+6)/12·1024) by VADDPD, VDIVPD, VMULPD and a truncation, as the Go
// code computes it; the table is read only where −6 < x < 6 (a masked
// gather, so an out-of-range or NaN lane reads nothing), x ≥ 6 gives 1 and
// every other lane, NaN included, 0. Needs Y8 = 6, Y9 = −6, Y10 = 12,
// Y11 = 1024, Y12 = 1 and R13 = &sigmoidTab; clobbers Y2–Y6.
#define SIGMA(D) \
	VADDPD      Y8, D, Y2; \
	VDIVPD      Y10, Y2, Y2; \
	VMULPD      Y11, Y2, Y2; \
	VCVTTPD2DQY Y2, X3; \
	VCMPPD      $0x1e, Y9, D, Y5; \
	VCMPPD      $0x11, Y8, D, Y6; \
	VANDPD      Y6, Y5, Y5; \
	VCMPPD      $0x1d, Y8, D, Y4; \
	VANDPD      Y12, Y4, D; \
	VGATHERDPD  Y5, (R13)(X3*8), D

// DOT2(OFF) adds elements i and i+1, i = (AX+OFF)/8, to the dot chains:
// Y2/Y3 load vo0|vo2 and vo1|vo3 at i and i+1, the unpacks give
// (vo0, vo1, vo2, vo3) at i in Y4 and at i+1 in Y5, and each is multiplied
// by the broadcast vi element and added to Y0, one target a lane. Target 4
// is the scalar chain in X1.
#define DOT2(OFF) \
	VMOVUPD      OFF(R8)(AX*1), X2; \
	VINSERTF128  $1, OFF(R10)(AX*1), Y2, Y2; \
	VMOVUPD      OFF(R9)(AX*1), X3; \
	VINSERTF128  $1, OFF(R11)(AX*1), Y3, Y3; \
	VUNPCKLPD    Y3, Y2, Y4; \
	VUNPCKHPD    Y3, Y2, Y5; \
	VBROADCASTSD OFF(DI)(AX*1), Y6; \
	VMULPD       Y4, Y6, Y7; \
	VADDPD       Y7, Y0, Y0; \
	VMULSD       OFF(R12)(AX*1), X6, X7; \
	VADDSD       X7, X1, X1; \
	VBROADCASTSD OFF+8(DI)(AX*1), Y6; \
	VMULPD       Y5, Y6, Y7; \
	VADDPD       Y7, Y0, Y0; \
	VMULSD       OFF+8(R12)(AX*1), X6, X7; \
	VADDSD       X7, X1, X1

// UPDATE(VO, G) moves four elements of one output row: a = vo[i:i+4],
// grad += g·a, vo[i:i+4] = a − g·v, with v = vi[i:i+4] in Y7 and grad in Y8.
#define UPDATE(VO, G) \
	VMOVUPD (VO)(AX*1), Y9; \
	VMULPD  Y9, G, Y10; \
	VADDPD  Y10, Y8, Y8; \
	VMULPD  Y7, G, Y10; \
	VSUBPD  Y10, Y9, Y9; \
	VMOVUPD Y9, (VO)(AX*1)

// func trainPair5AVX2(vi, out *float64, t *[pairTargets]int, n int, lr float64)
//
// Three phases over a width of 4n. Dots: Y0 holds the chains of targets
// 0–3, one a lane, and X1 target 4's, each summed over i ascending from
// zero, VMULPD then VADDPD (VMULSD then VADDSD for target 4). σ and g:
// SIGMA on Y0 and on Y1 = (d4, 0, 0, 0), then g = (σ − label)·lr. Update:
// four elements a step, grad summed from zero in target order, each vo
// moved after it is read, vi moved last.
//
// Registers: DI vi, R8–R12 the output rows of targets 0–4, R13 sigmoidTab,
// AX the byte offset into every row, CX the width in bytes.
TEXT ·trainPair5AVX2(SB), NOSPLIT, $0-40
	MOVQ vi+0(FP), DI
	MOVQ out+8(FP), SI
	MOVQ t+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $5, CX
	MOVQ 0(BX), R8
	IMULQ CX, R8
	ADDQ SI, R8
	MOVQ 8(BX), R9
	IMULQ CX, R9
	ADDQ SI, R9
	MOVQ 16(BX), R10
	IMULQ CX, R10
	ADDQ SI, R10
	MOVQ 24(BX), R11
	IMULQ CX, R11
	ADDQ SI, R11
	MOVQ 32(BX), R12
	IMULQ CX, R12
	ADDQ SI, R12
	LEAQ ·sigmoidTab(SB), R13

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

dots:
	DOT2(0)
	DOT2(16)
	ADDQ $32, AX
	CMPQ AX, CX
	JB   dots

	VBROADCASTSD pairConst<>+0(SB), Y8
	VBROADCASTSD pairConst<>+8(SB), Y9
	VBROADCASTSD pairConst<>+16(SB), Y10
	VBROADCASTSD pairConst<>+24(SB), Y11
	VBROADCASTSD pairConst<>+32(SB), Y12
	SIGMA(Y0)
	SIGMA(Y1)
	VBROADCASTSD lr+32(FP), Y13
	VSUBPD       pairConst<>+32(SB), Y0, Y0
	VMULPD       Y13, Y0, Y0
	VMULPD       Y13, Y1, Y1
	VPERMPD      $0x00, Y0, Y2
	VPERMPD      $0x55, Y0, Y3
	VPERMPD      $0xaa, Y0, Y4
	VPERMPD      $0xff, Y0, Y5
	VBROADCASTSD X1, Y6
	XORQ         AX, AX

update:
	VMOVUPD (DI)(AX*1), Y7
	VXORPD  Y8, Y8, Y8
	UPDATE(R8, Y2)
	UPDATE(R9, Y3)
	UPDATE(R10, Y4)
	UPDATE(R11, Y5)
	UPDATE(R12, Y6)
	VSUBPD  Y8, Y7, Y7
	VMOVUPD Y7, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      update

	VZEROUPPER
	RET

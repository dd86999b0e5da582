// Fixture for TestNoLegacySSEFixtureRejected: never built (testdata).

#include "textflag.h"

// The scalar step in the legacy encoding, as a macro.
#define LEGACYSTEP(dst) \
	MULSD X0, dst         \
	ADDSD (DI)(AX*8), dst

// func axpyLegacyTail(a float64, x, y *float64, n int)
// A ymm loop whose one-lane tail runs legacy SSE before VZEROUPPER:
// rejected, four findings.
TEXT ·axpyLegacyTail(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	XORQ         AX, AX

wide:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     wide

one:
	MOVSD (SI)(AX*8), X1
	LEGACYSTEP(X1)
	MOVSD X1, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, CX
	JLT   one
	VZEROUPPER
	RET

// func axpyVEXTail(a float64, x, y *float64, n int) float64
// The same tail VEX-encoded, and a legacy MOVQ only after VZEROUPPER:
// accepted.
TEXT ·axpyVEXTail(SB), NOSPLIT, $0-40
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	XORQ         AX, AX
	VMOVSD       (SI)(AX*8), X1
	VMULSD       X0, X1, X1
	VADDSD       (DI)(AX*8), X1, X1
	VMOVSD       X1, (DI)(AX*8)
	VZEROUPPER
	MOVQ         X1, ret+32(FP)
	RET

// func scalarOnly(a float64) float64
// No ymm or zmm register: exempt.
TEXT ·scalarOnly(SB), NOSPLIT, $0-16
	MOVSD a+0(FP), X0
	ADDSD X0, X0
	MOVSD X0, ret+8(FP)
	RET

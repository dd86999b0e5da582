// AVX-512 packed-sweep kernels: the AVX2 kernels of packed_amd64.s with
// one zmm per octet of lanes (a window of width lanes is width/8 zmm). They
// use AVX512F and AVX512DQ only, keep the same floating-point operation
// order (separate multiply and add, never FMA; the Padé nesting order and
// VDIVPD), end in VZEROUPPER and leave BP alone.

#include "textflag.h"

// wantSpin saturation bounds and Padé coefficients, broadcast per call.
DATA satHi<>+0(SB)/8, $0x40143d70a3d70a3d // 5.06
GLOBL satHi<>(SB), RODATA, $8
DATA satLo<>+0(SB)/8, $0xc0143d70a3d70a3d // -5.06
GLOBL satLo<>(SB), RODATA, $8
DATA c135135<>+0(SB)/8, $0x41007ef800000000
GLOBL c135135<>(SB), RODATA, $8
DATA c17325<>+0(SB)/8, $0x40d0eb4000000000
GLOBL c17325<>(SB), RODATA, $8
DATA c378<>+0(SB)/8, $0x4077a00000000000
GLOBL c378<>(SB), RODATA, $8
DATA c62370<>+0(SB)/8, $0x40ee744000000000
GLOBL c62370<>(SB), RODATA, $8
DATA c3150<>+0(SB)/8, $0x40a89c0000000000
GLOBL c3150<>(SB), RODATA, $8
DATA c28<>+0(SB)/8, $0x403c000000000000
GLOBL c28<>(SB), RODATA, $8

// func packedWantAVX512(beta float64, f, nz *float64, width int) uint64
//
// packedWantAVX2 with k-mask compares. Pass A collects, one octet per
// zmm, the hi mask (x > 5.06) and the sat mask (|x| beyond either rail)
// straight from the compare opmasks; a fully saturated window returns hi.
// Pass B evaluates the Padé rational for each octet with an unsaturated
// lane, adds the noise and sets want where p/q + noise >= 0 — the scalar
// comparison itself. The saturated lanes are then overridden by mask:
// want = (pade &^ sat) | hi.
TEXT ·packedWantAVX512(SB), NOSPLIT, $0-40
	VBROADCASTSD beta+0(FP), Z0
	MOVQ         f+8(FP), SI
	MOVQ         nz+16(FP), DX
	MOVQ         width+24(FP), R12
	VBROADCASTSD satHi<>(SB), Z1
	VBROADCASTSD satLo<>(SB), Z2

	// Pass A: octet o's hi and sat bits land at bit 8o of R10 and R11.
	XORQ R10, R10
	XORQ R11, R11
	XORQ CX, CX   // bit position of the octet
	MOVQ SI, R9

scan:
	VMULPD  (R9), Z0, Z3      // x = f·beta
	VCMPPD  $0x1e, Z1, Z3, K1 // x > 5.06 (GT_OQ)
	VCMPPD  $0x11, Z2, Z3, K2 // x < -5.06 (LT_OQ)
	KORB    K1, K2, K2
	KMOVB   K1, AX
	KMOVB   K2, BX
	SHLQ    CX, AX
	SHLQ    CX, BX
	ORQ     AX, R10
	ORQ     BX, R11
	ADDQ    $64, R9
	ADDQ    $8, CX
	CMPQ    CX, R12
	JNE     scan

	// Every lane is saturated iff sat equals the window's lane mask,
	// ^0 >> (64 − width).
	MOVQ $64, CX
	SUBQ R12, CX
	MOVQ $-1, AX
	SHRQ CX, AX
	CMPQ R11, AX
	JNE  pade
	MOVQ R10, ret+32(FP) // every lane saturated: want = hi mask
	VZEROUPPER
	RET

	// Pass B: a fully saturated octet is decided by hi and skips the
	// VDIVPD; the others' p/q + noise >= 0 bits accumulate in R8.
pade:
	VBROADCASTSD c378<>(SB), Z20
	VBROADCASTSD c17325<>(SB), Z21
	VBROADCASTSD c135135<>(SB), Z22
	VBROADCASTSD c28<>(SB), Z23
	VBROADCASTSD c3150<>(SB), Z24
	VBROADCASTSD c62370<>(SB), Z25
	VPXORQ       Z9, Z9, Z9 // +0.0
	XORQ         R8, R8
	XORQ         CX, CX

padeoctet:
	MOVQ R11, AX
	SHRQ CX, AX
	ANDQ $0xff, AX
	CMPQ AX, $0xff
	JEQ  padenext

	VMULPD  (SI), Z0, Z3 // x = f·beta
	VMULPD  Z3, Z3, Z6   // x2
	VADDPD  Z20, Z6, Z7  // 378 + x2
	VMULPD  Z6, Z7, Z7
	VADDPD  Z21, Z7, Z7
	VMULPD  Z6, Z7, Z7
	VADDPD  Z22, Z7, Z7
	VMULPD  Z3, Z7, Z7   // p = x·(135135 + x2·(17325 + x2·(378 + x2)))
	VMULPD  Z23, Z6, Z10 // x2·28
	VADDPD  Z24, Z10, Z10
	VMULPD  Z6, Z10, Z10
	VADDPD  Z25, Z10, Z10
	VMULPD  Z6, Z10, Z10
	VADDPD  Z22, Z10, Z10 // q = 135135 + x2·(62370 + x2·(3150 + x2·28))
	VDIVPD  Z10, Z7, Z7   // p/q
	VADDPD  (DX), Z7, Z7  // + noise
	VCMPPD  $0x1d, Z9, Z7, K1 // p/q + noise >= 0 (GE_OQ)
	KMOVB   K1, AX
	SHLQ    CX, AX
	ORQ     AX, R8

padenext:
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $8, CX
	CMPQ CX, R12
	JNE  padeoctet

	NOTQ R11
	ANDQ R11, R8 // saturated lanes drop their Padé bit…
	ORQ  R10, R8 // …and take their hi bit
	MOVQ R8, ret+32(FP)
	VZEROUPPER
	RET

// Dense pull and flush, as pullDenseAVX2 and flushDenseAVX2 but with one
// zmm accumulator per octet: every window width fits in registers at once
// (width 64 is Z0-Z7), so each takes a single pass over the list. Z8 holds
// the broadcast J[j][i]; the products go through Z16-Z23.

#define ZSTEP(off, acc, tmp) VMULPD off(AX), Z8, tmp; VADDPD tmp, acc, acc
#define ZSTEP1 ZSTEP(0, Z0, Z16)
#define ZSTEP2 ZSTEP1; ZSTEP(64, Z1, Z17)
#define ZSTEP3 ZSTEP2; ZSTEP(128, Z2, Z18)
#define ZSTEP4 ZSTEP3; ZSTEP(192, Z3, Z19)
#define ZSTEP8 ZSTEP4; ZSTEP(256, Z4, Z20); ZSTEP(320, Z5, Z21); ZSTEP(384, Z6, Z22); ZSTEP(448, Z7, Z23)

#define ZLOAD1 VMOVUPD (DI), Z0
#define ZLOAD2 ZLOAD1; VMOVUPD 64(DI), Z1
#define ZLOAD3 ZLOAD2; VMOVUPD 128(DI), Z2
#define ZLOAD4 ZLOAD3; VMOVUPD 192(DI), Z3
#define ZLOAD8 ZLOAD4; VMOVUPD 256(DI), Z4; VMOVUPD 320(DI), Z5; VMOVUPD 384(DI), Z6; VMOVUPD 448(DI), Z7

#define ZSTORE1 VMOVUPD Z0, (DI)
#define ZSTORE2 ZSTORE1; VMOVUPD Z1, 64(DI)
#define ZSTORE3 ZSTORE2; VMOVUPD Z2, 128(DI)
#define ZSTORE4 ZSTORE3; VMOVUPD Z3, 192(DI)
#define ZSTORE8 ZSTORE4; VMOVUPD Z4, 256(DI); VMOVUPD Z5, 320(DI); VMOVUPD Z6, 384(DI); VMOVUPD Z7, 448(DI)

// ZPASS loads spin j's block, applies the list from R9 to R11 (at least
// one entry), and stores it back. Registers as in packed_amd64.s.
#define ZPASS(load, steps, store, loop) \
	load                        \
	MOVQ         R9, R10        \
loop:                               \
	MOVLQSX      (R10), AX      \
	VBROADCASTSD (SI)(AX*8), Z8 \
	IMULQ        R12, AX        \
	ADDQ         DX, AX         \
	steps                       \
	ADDQ         $4, R10        \
	CMPQ         R10, R11       \
	JNE          loop           \
	store

// func pullDenseAVX512(row *float64, flips *int32, nf int, deltas *float64, field *float64, width int)
TEXT ·pullDenseAVX512(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), SI
	MOVQ flips+8(FP), R9
	MOVQ nf+16(FP), R11
	MOVQ deltas+24(FP), DX
	MOVQ field+32(FP), DI
	MOVQ width+40(FP), R12
	SHLQ $3, R12          // block stride: width lanes · 8 bytes
	LEAQ (R9)(R11*4), R11 // list end
	CMPQ R12, $64
	JEQ  w8
	CMPQ R12, $128
	JEQ  w16
	CMPQ R12, $192
	JEQ  w24
	CMPQ R12, $256
	JEQ  w32
	ZPASS(ZLOAD8, ZSTEP8, ZSTORE8, w64loop)
	VZEROUPPER
	RET

w32:
	ZPASS(ZLOAD4, ZSTEP4, ZSTORE4, w32loop)
	VZEROUPPER
	RET

w24:
	ZPASS(ZLOAD3, ZSTEP3, ZSTORE3, w24loop)
	VZEROUPPER
	RET

w16:
	ZPASS(ZLOAD2, ZSTEP2, ZSTORE2, w16loop)
	VZEROUPPER
	RET

w8:
	ZPASS(ZLOAD1, ZSTEP1, ZSTORE1, w8loop)
	VZEROUPPER
	RET

// ZNEXT advances R9 past the list entries ≤ j (BX), finishing the flush
// once none is left, and falls into body.
#define ZNEXT(skip, body) \
skip:                       \
	CMPQ    R9, R11     \
	JEQ     done        \
	MOVLQSX (R9), AX    \
	CMPQ    AX, BX      \
	JGT     body        \
	ADDQ    $4, R9      \
	JMP     skip        \
body:

// ZSPIN moves on to spin j+1: its J row and its field block.
#define ZSPIN(skip) \
	INCQ BX      \
	ADDQ R8, SI  \
	ADDQ R12, DI \
	JMP  skip

// func flushDenseAVX512(jdata *float64, n int, flips *int32, nf int, deltas *float64, fields *float64, width int)
TEXT ·flushDenseAVX512(SB), NOSPLIT, $0-56
	MOVQ jdata+0(FP), SI
	MOVQ n+8(FP), R8
	MOVQ flips+16(FP), R9
	MOVQ nf+24(FP), R11
	MOVQ deltas+32(FP), DX
	MOVQ fields+40(FP), DI
	MOVQ width+48(FP), R12
	SHLQ $3, R8           // J row stride: n · 8 bytes
	SHLQ $3, R12          // block stride: width lanes · 8 bytes
	LEAQ (R9)(R11*4), R11 // list end
	XORQ BX, BX           // j
	CMPQ R12, $64
	JEQ  w8
	CMPQ R12, $128
	JEQ  w16
	CMPQ R12, $192
	JEQ  w24
	CMPQ R12, $256
	JEQ  w32

	ZNEXT(w64skip, w64body)
	ZPASS(ZLOAD8, ZSTEP8, ZSTORE8, w64loop)
	ZSPIN(w64skip)

w32:
	ZNEXT(w32skip, w32body)
	ZPASS(ZLOAD4, ZSTEP4, ZSTORE4, w32loop)
	ZSPIN(w32skip)

w24:
	ZNEXT(w24skip, w24body)
	ZPASS(ZLOAD3, ZSTEP3, ZSTORE3, w24loop)
	ZSPIN(w24skip)

w16:
	ZNEXT(w16skip, w16body)
	ZPASS(ZLOAD2, ZSTEP2, ZSTORE2, w16loop)
	ZSPIN(w16skip)

w8:
	ZNEXT(w8skip, w8body)
	ZPASS(ZLOAD1, ZSTEP1, ZSTORE1, w8loop)
	ZSPIN(w8skip)

done:
	VZEROUPPER
	RET

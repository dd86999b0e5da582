// AVX-512 packed-sweep kernels: the AVX2 kernels of packed_amd64.s with
// one zmm per octet of lanes (a window of width lanes is width/8 zmm). They
// use AVX512F and AVX512DQ only, end in VZEROUPPER and leave BP alone.
// packedWantAVX512 keeps the scalar floating-point operations exactly
// (separate multiply and add, never FMA; the Padé nesting order and
// VDIVPD). The dense pull and flush fuse each term's multiply and add,
// which is exact for the operands they are given (see below), and the
// pair kernels take two adjacent spins per list walk.

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

// Dense pull and flush: pullDenseAVX2 and flushDenseAVX2 with one zmm
// accumulator per octet, so every window width stays in registers for the
// whole list walk (width 64 is Z0-Z7), and one fused multiply-add per
// octet and term. Fusing is exact here: the dispatchers call these only
// with δ lanes in {+2, −2, 0} and every |J_ij| ≤ MaxFloat64/2, or with ±1
// blocks, so each product J·δ is exact and round(f + J·δ) is pullDenseGo's
// separately rounded multiply and add; an exact zero product takes the
// same sign rules either way.
//
// The pair kernels update spins j and j+1 in one walk: j's block in
// Z0-Z7, j+1's in Z8-Z15, each δ octet loaded once into Z16-Z23 and fed to
// both rows. Z24 holds the broadcast J[j][i], Z25 J[j+1][i].
//
// Registers shared by the macros: SI = J row j, R13 = J row j+1, R10
// walks the list up to R11, its end; R12 = block stride in bytes, DX =
// deltas, DI = spin j's field block (j+1's at DI+R12); AX holds i and then
// δ_i's address.

// One row: acc += J[j][i]·δ_i, δ_i's octet read from memory.
#define ROW(off, acc) VFMADD231PD off(AX), Z24, acc
#define ROW1 ROW(0, Z0)
#define ROW2 ROW1; ROW(64, Z1)
#define ROW3 ROW2; ROW(128, Z2)
#define ROW4 ROW3; ROW(192, Z3)
#define ROW8 ROW4; ROW(256, Z4); ROW(320, Z5); ROW(384, Z6); ROW(448, Z7)

// Two rows: δ_i's octet loaded once, then j's term and j+1's.
#define PAIR(off, d, a, b) VMOVUPD off(AX), d; VFMADD231PD d, Z24, a; VFMADD231PD d, Z25, b
#define PAIR1 PAIR(0, Z16, Z0, Z8)
#define PAIR2 PAIR1; PAIR(64, Z17, Z1, Z9)
#define PAIR3 PAIR2; PAIR(128, Z18, Z2, Z10)
#define PAIR4 PAIR3; PAIR(192, Z19, Z3, Z11)
#define PAIR8 PAIR4; PAIR(256, Z20, Z4, Z12); PAIR(320, Z21, Z5, Z13); PAIR(384, Z22, Z6, Z14); PAIR(448, Z23, Z7, Z15)

#define LOAD1 VMOVUPD (DI), Z0
#define LOAD2 LOAD1; VMOVUPD 64(DI), Z1
#define LOAD3 LOAD2; VMOVUPD 128(DI), Z2
#define LOAD4 LOAD3; VMOVUPD 192(DI), Z3
#define LOAD8 LOAD4; VMOVUPD 256(DI), Z4; VMOVUPD 320(DI), Z5; VMOVUPD 384(DI), Z6; VMOVUPD 448(DI), Z7

#define STORE1 VMOVUPD Z0, (DI)
#define STORE2 STORE1; VMOVUPD Z1, 64(DI)
#define STORE3 STORE2; VMOVUPD Z2, 128(DI)
#define STORE4 STORE3; VMOVUPD Z3, 192(DI)
#define STORE8 STORE4; VMOVUPD Z4, 256(DI); VMOVUPD Z5, 320(DI); VMOVUPD Z6, 384(DI); VMOVUPD Z7, 448(DI)

// Spin j+1's block, at DI+R12.
#define LOADB1 VMOVUPD (DI)(R12*1), Z8
#define LOADB2 LOADB1; VMOVUPD 64(DI)(R12*1), Z9
#define LOADB3 LOADB2; VMOVUPD 128(DI)(R12*1), Z10
#define LOADB4 LOADB3; VMOVUPD 192(DI)(R12*1), Z11
#define LOADB8 LOADB4; VMOVUPD 256(DI)(R12*1), Z12; VMOVUPD 320(DI)(R12*1), Z13; VMOVUPD 384(DI)(R12*1), Z14; VMOVUPD 448(DI)(R12*1), Z15

#define STOREB1 VMOVUPD Z8, (DI)(R12*1)
#define STOREB2 STOREB1; VMOVUPD Z9, 64(DI)(R12*1)
#define STOREB3 STOREB2; VMOVUPD Z10, 128(DI)(R12*1)
#define STOREB4 STOREB3; VMOVUPD Z11, 192(DI)(R12*1)
#define STOREB8 STOREB4; VMOVUPD Z12, 256(DI)(R12*1); VMOVUPD Z13, 320(DI)(R12*1); VMOVUPD Z14, 384(DI)(R12*1); VMOVUPD Z15, 448(DI)(R12*1)

// Both blocks of a pair.
#define LOADP1 LOAD1; LOADB1
#define LOADP2 LOAD2; LOADB2
#define LOADP3 LOAD3; LOADB3
#define LOADP4 LOAD4; LOADB4
#define LOADP8 LOAD8; LOADB8

#define STOREP1 STORE1; STOREB1
#define STOREP2 STORE2; STOREB2
#define STOREP3 STORE3; STOREB3
#define STOREP4 STORE4; STOREB4
#define STOREP8 STORE8; STOREB8

// WALK1 applies the list from R10 to R11 (at least one entry) to row j,
// WALK2 to rows j and j+1.
#define WALK1(steps, loop) \
loop:                                \
	MOVLQSX      (R10), AX       \
	VBROADCASTSD (SI)(AX*8), Z24  \
	IMULQ        R12, AX         \
	ADDQ         DX, AX          \
	steps                        \
	ADDQ         $4, R10         \
	CMPQ         R10, R11        \
	JNE          loop

#define WALK2(steps, loop) \
loop:                                \
	MOVLQSX      (R10), AX       \
	VBROADCASTSD (SI)(AX*8), Z24  \
	VBROADCASTSD (R13)(AX*8), Z25 \
	IMULQ        R12, AX         \
	ADDQ         DX, AX          \
	steps                        \
	ADDQ         $4, R10         \
	CMPQ         R10, R11        \
	JNE          loop

// WIDTH jumps to the body for the window width in R12 (bytes); width 64
// falls through.
#define WIDTH \
	CMPQ R12, $64  \
	JEQ  w8        \
	CMPQ R12, $128 \
	JEQ  w16       \
	CMPQ R12, $192 \
	JEQ  w24       \
	CMPQ R12, $256 \
	JEQ  w32

// func pullDenseAVX512(row *float64, flips *int32, nf int, deltas *float64, field *float64, width int)
//
// One spin's pull: field[k] += row[i]·δ_i[k] for each listed i (nf ≥ 1).
TEXT ·pullDenseAVX512(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), SI
	MOVQ flips+8(FP), R10
	MOVQ nf+16(FP), R11
	MOVQ deltas+24(FP), DX
	MOVQ field+32(FP), DI
	MOVQ width+40(FP), R12
	SHLQ $3, R12            // block stride: width lanes · 8 bytes
	LEAQ (R10)(R11*4), R11  // list end
	WIDTH
	LOAD8
	WALK1(ROW8, w64loop)
	STORE8
	VZEROUPPER
	RET

w32:
	LOAD4
	WALK1(ROW4, w32loop)
	STORE4
	VZEROUPPER
	RET

w24:
	LOAD3
	WALK1(ROW3, w24loop)
	STORE3
	VZEROUPPER
	RET

w16:
	LOAD2
	WALK1(ROW2, w16loop)
	STORE2
	VZEROUPPER
	RET

w8:
	LOAD1
	WALK1(ROW1, w8loop)
	STORE1
	VZEROUPPER
	RET

// func pullDensePairAVX512(row0 *float64, row1 *float64, flips *int32, nf int, deltas *float64, fields *float64, width int)
//
// Two adjacent spins' pull: fields holds both blocks, and each takes its
// row's terms for every listed i (nf ≥ 1), in list order.
TEXT ·pullDensePairAVX512(SB), NOSPLIT, $0-56
	MOVQ row0+0(FP), SI
	MOVQ row1+8(FP), R13
	MOVQ flips+16(FP), R10
	MOVQ nf+24(FP), R11
	MOVQ deltas+32(FP), DX
	MOVQ fields+40(FP), DI
	MOVQ width+48(FP), R12
	SHLQ $3, R12
	LEAQ (R10)(R11*4), R11
	WIDTH
	LOADP8
	WALK2(PAIR8, w64loop)
	STOREP8
	VZEROUPPER
	RET

w32:
	LOADP4
	WALK2(PAIR4, w32loop)
	STOREP4
	VZEROUPPER
	RET

w24:
	LOADP3
	WALK2(PAIR3, w24loop)
	STOREP3
	VZEROUPPER
	RET

w16:
	LOADP2
	WALK2(PAIR2, w16loop)
	STOREP2
	VZEROUPPER
	RET

w8:
	LOADP1
	WALK2(PAIR1, w8loop)
	STOREP1
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

// ZPAIR flushes spins j and j+1 from R9, the first list entry past j:
// j's block takes flip j+1 alone if it is listed, then both blocks take
// the rest of the list. Some listed spin exceeds j, so j+1 < n.
#define ZPAIR(load, one, steps, store, tail, loop, stored) \
	load                         \
	MOVQ         R9, R10         \
	LEAQ         1(BX), CX       \
	MOVLQSX      (R10), AX       \
	CMPQ         AX, CX          \
	JNE          tail            \
	VBROADCASTSD (SI)(AX*8), Z24 \
	IMULQ        R12, AX         \
	ADDQ         DX, AX          \
	one                          \
	ADDQ         $4, R10         \
	CMPQ         R10, R11        \
	JEQ          stored          \
tail:                                \
	LEAQ         (SI)(R8*1), R13 \
	WALK2(steps, loop)           \
stored:                              \
	store

// ZSPIN2 moves on to spin j+2: its J row and its field block.
#define ZSPIN2(skip) \
	ADDQ $2, BX          \
	LEAQ (SI)(R8*2), SI  \
	LEAQ (DI)(R12*2), DI \
	JMP  skip

// func flushDenseAVX512(jdata *float64, n int, flips *int32, nf int, deltas *float64, fields *float64, width int)
//
// One sweep's flush, two spins at a time: for j = 0, 2, 4, … while some
// listed i exceeds j, spin j's block takes J[j][j+1]·δ_{j+1} if j+1 is
// listed, then spins j and j+1 take their terms of each listed i > j+1,
// in list order.
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
	WIDTH

	ZNEXT(w64skip, w64body)
	ZPAIR(LOADP8, ROW8, PAIR8, STOREP8, w64tail, w64loop, w64stored)
	ZSPIN2(w64skip)

w32:
	ZNEXT(w32skip, w32body)
	ZPAIR(LOADP4, ROW4, PAIR4, STOREP4, w32tail, w32loop, w32stored)
	ZSPIN2(w32skip)

w24:
	ZNEXT(w24skip, w24body)
	ZPAIR(LOADP3, ROW3, PAIR3, STOREP3, w24tail, w24loop, w24stored)
	ZSPIN2(w24skip)

w16:
	ZNEXT(w16skip, w16body)
	ZPAIR(LOADP2, ROW2, PAIR2, STOREP2, w16tail, w16loop, w16stored)
	ZSPIN2(w16skip)

w8:
	ZNEXT(w8skip, w8body)
	ZPAIR(LOADP1, ROW1, PAIR1, STOREP1, w8tail, w8loop, w8stored)
	ZSPIN2(w8skip)

done:
	VZEROUPPER
	RET

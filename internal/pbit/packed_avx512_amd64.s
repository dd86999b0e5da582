// AVX-512 packed-sweep kernels: the AVX2 kernels of packed_amd64.s with
// one zmm per octet of lanes (a window of width lanes is width/8 zmm), plus
// sweepDenseAVX512, which runs a whole dense window sweep's visits in one
// call, and axpyAVX512, the scalar dense machine's flip (at the end).
// They use AVX512F and AVX512DQ only, end in VZEROUPPER and leave BP
// alone. The threshold steps keep the scalar floating-point operations
// exactly (separate multiply and add, never FMA; the Padé nesting order and
// VDIVPD). The dense pull and flush fuse each term's multiply and add,
// which is exact for the operands they are given (see below), and the pair
// kernels take two adjacent spins per list walk. Each step's text exists
// once, as a macro the standalone kernels and the sweep share.

#include "textflag.h"

// wantSpin saturation bounds and Padé coefficients, broadcast from memory
// by the instructions that use them; ±2 are the flip deltas.
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
DATA two<>+0(SB)/8, $0x4000000000000000 // +2.0
GLOBL two<>(SB), RODATA, $8
DATA mtwo<>+0(SB)/8, $0xc000000000000000 // -2.0
GLOBL mtwo<>(SB), RODATA, $8

// Threshold steps: packedWantGo's decisions for one spin's window, one
// octet of lanes per step. Z26 holds β broadcast and Z31 +0.0. An octet's
// fields f are a zmm or a memory operand, its noise nz a memory operand,
// and sh its bit position in the mask words (an immediate, or CX). R10
// collects the hi mask (x > 5.06), R13 the saturated mask (x beyond
// either rail) and R14 the want word; AX, Z27-Z30, K1 and K2 are scratch.

// SAT: x = f·β, then the octet's hi and saturated bits.
#define SAT(f, sh) \
	VMULPD      f, Z26, Z27                 \
	VCMPPD.BCST $0x1e, satHi<>(SB), Z27, K1 \
	VCMPPD.BCST $0x11, satLo<>(SB), Z27, K2 \
	KORB        K1, K2, K2                  \
	KMOVB       K1, AX                      \
	SHLQ        sh, AX                      \
	ORQ         AX, R10                     \
	KMOVB       K2, AX                      \
	SHLQ        sh, AX                      \
	ORQ         AX, R13

// ALLSAT: R14 = hi, and a jump to done when every lane of the window is
// saturated (the saturated mask equals the lane mask ^0 >> lshift); else
// R14 = 0 for the Padé bits.
#define ALLSAT(lshift, done) \
	MOVQ R10, R14   \
	MOVQ $-1, AX    \
	SHRQ lshift, AX \
	CMPQ R13, AX    \
	JEQ  done       \
	XORQ R14, R14

// PADE: unless every lane of the octet is saturated, its p/q + noise >= 0
// bits (GE_OQ, the scalar comparison), with x = f·β, x2 = x·x,
// p = x·(135135 + x2·(17325 + x2·(378 + x2))) and
// q = 135135 + x2·(62370 + x2·(3150 + x2·28)): wantSpin's nesting, every
// multiply and add rounded on its own.
#define PADE(f, nz, sh, skip) \
	MOVQ        R13, AX                \
	SHRQ        sh, AX                 \
	ANDQ        $0xff, AX              \
	CMPQ        AX, $0xff              \
	JEQ         skip                   \
	VMULPD      f, Z26, Z27            \
	VMULPD      Z27, Z27, Z28          \
	VADDPD.BCST c378<>(SB), Z28, Z29    \
	VMULPD      Z28, Z29, Z29          \
	VADDPD.BCST c17325<>(SB), Z29, Z29  \
	VMULPD      Z28, Z29, Z29          \
	VADDPD.BCST c135135<>(SB), Z29, Z29 \
	VMULPD      Z27, Z29, Z29          \
	VMULPD.BCST c28<>(SB), Z28, Z30     \
	VADDPD.BCST c3150<>(SB), Z30, Z30   \
	VMULPD      Z28, Z30, Z30          \
	VADDPD.BCST c62370<>(SB), Z30, Z30  \
	VMULPD      Z28, Z30, Z30          \
	VADDPD.BCST c135135<>(SB), Z30, Z30 \
	VDIVPD      Z30, Z29, Z29          \
	VADDPD      nz, Z29, Z29           \
	VCMPPD      $0x1d, Z31, Z29, K1    \
	KMOVB       K1, AX                 \
	SHLQ        sh, AX                 \
	ORQ         AX, R14                \
skip:

// MERGE: saturated lanes drop their Padé bit and take their hi bit.
#define MERGE \
	NOTQ R13      \
	ANDQ R13, R14 \
	ORQ  R10, R14

// func packedWantAVX512(beta float64, f, nz *float64, width int) uint64
//
// packedWantAVX2 with k-mask compares. Pass A collects, one octet per
// zmm, the hi and saturated masks straight from the compare opmasks; a
// fully saturated window returns hi. Pass B evaluates the Padé rational
// for each octet with an unsaturated lane, adds the noise and sets want
// where p/q + noise >= 0. The saturated lanes are then overridden by
// mask: want = (pade &^ sat) | hi.
TEXT ·packedWantAVX512(SB), NOSPLIT, $0-40
	VBROADCASTSD beta+0(FP), Z26
	MOVQ         f+8(FP), SI
	MOVQ         nz+16(FP), DX
	MOVQ         width+24(FP), R12
	XORQ         R10, R10
	XORQ         R13, R13
	XORQ         CX, CX   // bit position of the octet
	MOVQ         SI, R9

scan:
	SAT((R9), CX)
	ADDQ $64, R9
	ADDQ $8, CX
	CMPQ CX, R12
	JNE  scan

	MOVQ   $64, CX
	SUBQ   R12, CX
	ALLSAT(CX, done)
	VPXORQ Z31, Z31, Z31
	XORQ   CX, CX

padeoctet:
	PADE((SI), (DX), CX, padenext)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $8, CX
	CMPQ CX, R12
	JNE  padeoctet

	MERGE

done:
	MOVQ R14, ret+32(FP)
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

// The dense window sweep: sweepDenseGo's visits in one call. Spins j and
// j+1 (j even) load their blocks into Z0-Z7 and Z8-Z15 and pull the
// sweep's earlier flips in one WALK2; j's threshold runs from Z0-Z7, and
// a flip writes its state word and its δ octets (into Z16-Z23 and over
// j's spent noise), lists j and adds J[j+1][j]·δ_j into Z8-Z15 (the
// hand-off); j's block is stored, Z8-Z15 move to Z0-Z7, and j+1's
// threshold and flip follow. An odd n's last spin loads one block and
// pulls with WALK1. Every field block is loaded and stored once.
//
// Registers: SI = J row j, R8 = J row stride, R9 = &states[j], R11 = the
// list's end (it grows as spins flip), R12 = block stride, DX = noise
// base (δ_i's block during the walk), CX = spin j's noise block, DI = its
// field block, BX = j. The walk uses R10, R13 and Z16-Z25, the threshold
// R10, R13, R14 and Z26-Z31 (β in Z26 and +0.0 in Z31 for the whole
// call); AX is scratch.

// DELTA: one octet of δ into d and over the spent noise at off(CX): +2 in
// the lanes R10 flags (flipping to +1), −2 in R14's (flipping to −1), +0
// elsewhere, as deltaTab; then the next octet's flags.
#define DELTA(d, off) \
	KMOVB          R10, K1           \
	KMOVB          R14, K2           \
	VBROADCASTSD.Z two<>(SB), K1, d  \
	VBROADCASTSD   mtwo<>(SB), K2, d \
	VMOVUPD        d, off(CX)        \
	SHRQ           $8, R10           \
	SHRQ           $8, R14
#define DELTA1 DELTA(Z16, 0)
#define DELTA2 DELTA1; DELTA(Z17, 64)
#define DELTA3 DELTA2; DELTA(Z18, 128)
#define DELTA4 DELTA3; DELTA(Z19, 192)
#define DELTA8 DELTA4; DELTA(Z20, 256); DELTA(Z21, 320); DELTA(Z22, 384); DELTA(Z23, 448)

// The hand-off: block j+1 += J[j+1][j]·δ_j, fused as pullDenseAVX512
// fuses it, with J[j+1][j] broadcast in Z25.
#define HAND1 VFMADD231PD Z16, Z25, Z8
#define HAND2 HAND1; VFMADD231PD Z17, Z25, Z9
#define HAND3 HAND2; VFMADD231PD Z18, Z25, Z10
#define HAND4 HAND3; VFMADD231PD Z19, Z25, Z11
#define HAND8 HAND4; VFMADD231PD Z20, Z25, Z12; VFMADD231PD Z21, Z25, Z13; VFMADD231PD Z22, Z25, Z14; VFMADD231PD Z23, Z25, Z15

// Block j+1 becomes the visited block.
#define NEXT1 VMOVAPD Z8, Z0
#define NEXT2 NEXT1; VMOVAPD Z9, Z1
#define NEXT3 NEXT2; VMOVAPD Z10, Z2
#define NEXT4 NEXT3; VMOVAPD Z11, Z3
#define NEXT8 NEXT4; VMOVAPD Z12, Z4; VMOVAPD Z13, Z5; VMOVAPD Z14, Z6; VMOVAPD Z15, Z7

// The visited spin's threshold from Z0-Z7 and its noise at CX, into R14;
// one copy per width, each with its own labels.
#define THRESH1 \
	XORQ R10, R10                   \
	XORQ R13, R13                   \
	SAT(Z0, $0)                     \
	ALLSAT($56, t8done)             \
	PADE(Z0, (CX), $0, t8o0)        \
	MERGE                           \
t8done:

#define THRESH2 \
	XORQ R10, R10                   \
	XORQ R13, R13                   \
	SAT(Z0, $0); SAT(Z1, $8)        \
	ALLSAT($48, t16done)            \
	PADE(Z0, (CX), $0, t16o0)       \
	PADE(Z1, 64(CX), $8, t16o1)     \
	MERGE                           \
t16done:

#define THRESH3 \
	XORQ R10, R10                   \
	XORQ R13, R13                   \
	SAT(Z0, $0); SAT(Z1, $8)        \
	SAT(Z2, $16)                    \
	ALLSAT($40, t24done)            \
	PADE(Z0, (CX), $0, t24o0)       \
	PADE(Z1, 64(CX), $8, t24o1)     \
	PADE(Z2, 128(CX), $16, t24o2)   \
	MERGE                           \
t24done:

#define THRESH4 \
	XORQ R10, R10                   \
	XORQ R13, R13                   \
	SAT(Z0, $0); SAT(Z1, $8)        \
	SAT(Z2, $16); SAT(Z3, $24)      \
	ALLSAT($32, t32done)            \
	PADE(Z0, (CX), $0, t32o0)       \
	PADE(Z1, 64(CX), $8, t32o1)     \
	PADE(Z2, 128(CX), $16, t32o2)   \
	PADE(Z3, 192(CX), $24, t32o3)   \
	MERGE                           \
t32done:

#define THRESH8 \
	XORQ R10, R10                   \
	XORQ R13, R13                   \
	SAT(Z0, $0); SAT(Z1, $8)        \
	SAT(Z2, $16); SAT(Z3, $24)      \
	SAT(Z4, $32); SAT(Z5, $40)      \
	SAT(Z6, $48); SAT(Z7, $56)      \
	ALLSAT($0, t64done)             \
	PADE(Z0, (CX), $0, t64o0)       \
	PADE(Z1, 64(CX), $8, t64o1)     \
	PADE(Z2, 128(CX), $16, t64o2)   \
	PADE(Z3, 192(CX), $24, t64o3)   \
	PADE(Z4, 256(CX), $32, t64o4)   \
	PADE(Z5, 320(CX), $40, t64o5)   \
	PADE(Z6, 384(CX), $48, t64o6)   \
	PADE(Z7, 448(CX), $56, t64o7)   \
	MERGE                           \
t64done:

// SWEEP is the sweep at one width, from its step macros, with its own
// labels: pair starts spins j and j+1, last an odd n's last spin, visit
// thresholds the spin in Z0-Z7 and kept stores its block and moves on.
#define SWEEP(loadp, load, pairsteps, rowsteps, thresh, delta, hand, store, next, pair, last, walk2, walk1, visit, kept, nspins, list) \
pair:                                   \
	LEAQ         1(BX), AX          \
	CMPQ         AX, nspins         \
	JGE          last               \
	loadp                           \
	MOVQ         list, R10          \
	CMPQ         R10, R11           \
	JEQ          visit              \
	LEAQ         (SI)(R8*1), R13    \
	WALK2(pairsteps, walk2)         \
	JMP          visit              \
last:                                   \
	CMPQ         BX, nspins         \
	JEQ          done               \
	load                            \
	MOVQ         list, R10          \
	CMPQ         R10, R11           \
	JEQ          visit              \
	WALK1(rowsteps, walk1)          \
visit:                                  \
	thresh                          \
	MOVQ         (R9), AX           \
	XORQ         R14, AX            \
	JEQ          kept               \
	MOVQ         R14, (R9)          \
	MOVQ         R14, R10           \
	ANDQ         AX, R10            \
	NOTQ         R14                \
	ANDQ         AX, R14            \
	delta                           \
	MOVL         BX, (R11)          \
	ADDQ         $4, R11            \
	TESTQ        $1, BX             \
	JNE          kept               \
	LEAQ         1(BX), AX          \
	CMPQ         AX, nspins         \
	JEQ          kept               \
	LEAQ         (SI)(R8*1), AX     \
	VBROADCASTSD (AX)(BX*8), Z25    \
	hand                            \
kept:                                   \
	store                           \
	ADDQ         $8, R9             \
	ADDQ         R12, CX            \
	ADDQ         R12, DI            \
	ADDQ         R8, SI             \
	INCQ         BX                 \
	TESTQ        $1, BX             \
	JEQ          pair               \
	CMPQ         BX, nspins         \
	JEQ          done               \
	next                            \
	JMP          visit

// func sweepDenseAVX512(beta float64, jdata *float64, n int, states *uint64, flips *int32, noise *float64, fields *float64, width int) int
//
// One dense window sweep's visits (n ≥ 1, |J| ≤ fusedBound): the list
// starts empty, and the call returns its length.
TEXT ·sweepDenseAVX512(SB), NOSPLIT, $0-72
	VBROADCASTSD beta+0(FP), Z26
	VPXORQ       Z31, Z31, Z31
	MOVQ         jdata+8(FP), SI
	MOVQ         n+16(FP), R8
	MOVQ         states+24(FP), R9
	MOVQ         flips+32(FP), R11
	MOVQ         noise+40(FP), DX
	MOVQ         fields+48(FP), DI
	MOVQ         width+56(FP), R12
	SHLQ         $3, R8
	SHLQ         $3, R12
	MOVQ         DX, CX
	XORQ         BX, BX
	WIDTH
	SWEEP(LOADP8, LOAD8, PAIR8, ROW8, THRESH8, DELTA8, HAND8, STORE8, NEXT8, w64pair, w64last, w64walk2, w64walk1, w64visit, w64kept, n+16(FP), flips+32(FP))

w32:
	SWEEP(LOADP4, LOAD4, PAIR4, ROW4, THRESH4, DELTA4, HAND4, STORE4, NEXT4, w32pair, w32last, w32walk2, w32walk1, w32visit, w32kept, n+16(FP), flips+32(FP))

w24:
	SWEEP(LOADP3, LOAD3, PAIR3, ROW3, THRESH3, DELTA3, HAND3, STORE3, NEXT3, w24pair, w24last, w24walk2, w24walk1, w24visit, w24kept, n+16(FP), flips+32(FP))

w16:
	SWEEP(LOADP2, LOAD2, PAIR2, ROW2, THRESH2, DELTA2, HAND2, STORE2, NEXT2, w16pair, w16last, w16walk2, w16walk1, w16visit, w16kept, n+16(FP), flips+32(FP))

w8:
	SWEEP(LOADP1, LOAD1, PAIR1, ROW1, THRESH1, DELTA1, HAND1, STORE1, NEXT1, w8pair, w8last, w8walk2, w8walk1, w8visit, w8kept, n+16(FP), flips+32(FP))

done:
	MOVQ flips+32(FP), AX
	SUBQ AX, R11
	SHRQ $2, R11
	MOVQ R11, ret+64(FP)
	VZEROUPPER
	RET

// func axpyAVX512(a float64, x, y *float64, n int)
//
// axpyAVX2 one zmm of eight lanes per step; the last n mod 8 lanes run
// as one masked step, whose masked-off lanes are neither loaded nor
// stored. Multiply then add, never FMA, the product first: axpyGo's
// rounding bit for bit.
TEXT ·axpyAVX512(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Z0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX // lanes the full steps cover
	JE           tail

wide:
	VMOVUPD (SI)(AX*8), Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  (DI)(AX*8), Z1, Z1
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JNE     wide

tail:
	SUBQ AX, CX // n mod 8 lanes left
	JE   done
	MOVQ $1, DX
	SHLQ CX, DX
	DECQ DX
	KMOVB DX, K1
	VMOVUPD.Z (SI)(AX*8), K1, Z1
	VMULPD    Z0, Z1, K1, Z1
	VADDPD    (DI)(AX*8), Z1, K1, Z1
	VMOVUPD   Z1, K1, (DI)(AX*8)

done:
	VZEROUPPER
	RET

// AVX2 packed-sweep kernels, and axpyAVX2, the scalar dense machine's
// flip (at the end). Each packed kernel processes 4 lanes per ymm vector over
// one lane window: width lanes (8, 16, 24, 32 or 64) per spin block,
// width/4 groups, blocks at a stride of width·8 bytes. Floating-point
// operation order matches the scalar wantSpin / flip kernels exactly
// (separate multiply and add, never FMA; Padé numerator/denominator
// evaluated in the scalar nesting order; each lane's field terms added in
// the scalar order), so results are bit-identical to the portable Go
// path.

#include "textflag.h"

// wantSpin saturation bounds (8-byte, broadcast once per call).
DATA satHi<>+0(SB)/8, $0x40143d70a3d70a3d // 5.06
GLOBL satHi<>(SB), RODATA, $8
DATA satLo<>+0(SB)/8, $0xc0143d70a3d70a3d // -5.06
GLOBL satLo<>(SB), RODATA, $8

// Padé coefficients and blend constants as full 32-byte vectors, used as
// memory operands so the whole register file stays free for live values.
#define VCONST(name, bits) \
	DATA name+0(SB)/8, bits  \
	DATA name+8(SB)/8, bits  \
	DATA name+16(SB)/8, bits \
	DATA name+24(SB)/8, bits \
	GLOBL name(SB), RODATA|NOPTR, $32

VCONST(c135135<>, $0x41007ef800000000)
VCONST(c17325<>, $0x40d0eb4000000000)
VCONST(c378<>, $0x4077a00000000000)
VCONST(c62370<>, $0x40ee744000000000)
VCONST(c3150<>, $0x40a89c0000000000)
VCONST(c28<>, $0x403c000000000000)
VCONST(cNeg1<>, $0xbff0000000000000) // -1.0
VCONST(cPos1<>, $0x3ff0000000000000) // 1.0

// func packedWantAVX2(beta float64, f, nz *float64, width int) uint64
//
// Pass A scans the window's width/4 groups branch-free, accumulating two
// masks: hi (x > 5.06 per lane) and sat (|x| beyond either rail). When
// every lane is saturated — the dominant case late in an anneal — the want
// word is hi and the Padé evaluation is skipped entirely: the scalar
// saturation shortcut amortized to one branch per window. Otherwise pass B
// runs the Padé rational in the exact scalar nesting order, adds the
// noise, and forces saturated lanes to ±1.0 by blend so one sign-mask read
// per group yields the want nibble. want bit k = 1 ⇔ sum_k >= 0; the sum
// can never be -0.0 (the noise stream never produces -0.0 and (+0)+(-0) =
// +0 in round-to-nearest), so the sign bit is exactly the >= 0 decision.
TEXT ·packedWantAVX2(SB), NOSPLIT, $0-40
	VBROADCASTSD beta+0(FP), Y0
	MOVQ f+8(FP), SI
	MOVQ nz+16(FP), DX
	MOVQ width+24(FP), R12
	VBROADCASTSD satHi<>(SB), Y1
	VBROADCASTSD satLo<>(SB), Y2

	// Pass A: walk the groups top-down two at a time (one octet per
	// step), shift-accumulating the hi and sat nibbles (R10, R11).
	LEAQ -64(SI)(R12*8), R9 // second-highest group; 32(R9) is the highest
	XORQ R10, R10
	XORQ R11, R11
	MOVQ R12, R8
	SHRQ $3, R8 // width/8 octets

scan:
	VMOVUPD 32(R9), Y3 // higher group of the pair
	VMOVUPD (R9), Y12  // lower group
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y12, Y12
	VCMPPD  $0x1e, Y1, Y3, Y4   // x > 5.06 (GT_OQ)
	VCMPPD  $0x11, Y2, Y3, Y5   // x < -5.06 (LT_OQ)
	VCMPPD  $0x1e, Y1, Y12, Y13
	VCMPPD  $0x11, Y2, Y12, Y14
	VPOR    Y4, Y5, Y6
	VPOR    Y13, Y14, Y15
	VMOVMSKPD Y4, AX
	VMOVMSKPD Y13, BX
	SHLQ    $8, R10
	SHLQ    $4, AX
	ORQ     BX, AX
	ORQ     AX, R10
	VMOVMSKPD Y6, AX
	VMOVMSKPD Y15, BX
	SHLQ    $8, R11
	SHLQ    $4, AX
	ORQ     BX, AX
	ORQ     AX, R11
	SUBQ    $64, R9
	DECQ    R8
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

	// Pass B: Padé evaluation for the groups with at least one unsaturated
	// lane; a fully saturated group's want nibble is already decided by hi
	// (the blend would force all four lanes to ±1.0, whose sign IS the hi
	// bit — same nibble, minus a VDIVPD). Saturated lanes inside a mixed
	// group are still overridden by blend. The want nibbles accumulate
	// with a running shift.
pade:
	MOVQ R10, R9 // hi decisions from pass A
	XORQ R10, R10
	XORQ CX, CX  // bit position of current group
	MOVQ R12, R8
	SHRQ $2, R8  // width/4 groups

padegroup:
	MOVQ R11, AX
	SHRQ CX, AX
	ANDQ $0xf, AX
	CMPQ AX, $0xf
	JNE  padecompute

	// All four lanes saturated: reuse the hi nibble.
	MOVQ R9, AX
	SHRQ CX, AX
	ANDQ $0xf, AX
	SHLQ CX, AX
	ORQ  AX, R10
	JMP  padenext

padecompute:
	VMOVUPD   (SI), Y3
	VMULPD    Y0, Y3, Y3 // x = f·beta
	VCMPPD    $0x1e, Y1, Y3, Y4
	VCMPPD    $0x11, Y2, Y3, Y5
	VMULPD    Y3, Y3, Y6         // x2
	VADDPD    c378<>(SB), Y6, Y7 // 378 + x2
	VMULPD    Y6, Y7, Y7
	VADDPD    c17325<>(SB), Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    c135135<>(SB), Y7, Y7
	VMULPD    Y3, Y7, Y7          // p = x·(135135 + x2·(17325 + x2·(378 + x2)))
	VMULPD    c28<>(SB), Y6, Y9   // x2·28
	VADDPD    c3150<>(SB), Y9, Y9
	VMULPD    Y6, Y9, Y9
	VADDPD    c62370<>(SB), Y9, Y9
	VMULPD    Y6, Y9, Y9
	VADDPD    c135135<>(SB), Y9, Y9 // q = 135135 + x2·(62370 + x2·(3150 + x2·28))
	VDIVPD    Y9, Y7, Y7            // p/q
	VADDPD    (DX), Y7, Y7          // + noise
	VBLENDVPD Y5, cNeg1<>(SB), Y7, Y7 // saturated-low lanes → -1.0 (want 0)
	VBLENDVPD Y4, cPos1<>(SB), Y7, Y7 // saturated-high lanes → +1.0 (want 1)
	VMOVMSKPD Y7, AX
	NOTL      AX
	ANDL      $0xf, AX // want nibble = ~signbits
	SHLQ      CX, AX
	ORQ       AX, R10

padenext:
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $4, CX
	DECQ R8
	JNE  padegroup

	MOVQ R10, ret+32(FP)
	VZEROUPPER
	RET

// Dense pull and flush. Both walk a list of flipped spins i (int32,
// increasing) and add J[j][i]·δ_i into spin j's field block, where δ_i is
// the width-lane delta block at deltas + i·width·8. The block's lanes stay
// in registers for the whole walk — 8 ymm per 32 lanes; width 64 takes
// two 32-lane passes — so each lane sees its terms in list order, one
// separately rounded multiply and add per term, exactly as pullDenseGo.
//
// Registers shared by the macros: SI = J row j, R9 = first list entry to
// apply, R11 = list end, R12 = block stride in bytes, DX = deltas, DI =
// spin j's field block (offset to the pass's lanes); R10 walks the list,
// AX holds i and then δ_i's address, Y8 the broadcast J[j][i].

#define YSTEP(off, acc, tmp) VMULPD off(AX), Y8, tmp; VADDPD tmp, acc, acc
#define YSTEP2 YSTEP(0, Y0, Y9); YSTEP(32, Y1, Y10)
#define YSTEP4 YSTEP2; YSTEP(64, Y2, Y11); YSTEP(96, Y3, Y12)
#define YSTEP6 YSTEP4; YSTEP(128, Y4, Y13); YSTEP(160, Y5, Y14)
#define YSTEP8 YSTEP6; YSTEP(192, Y6, Y15); YSTEP(224, Y7, Y9)

#define YLOAD2 VMOVUPD (DI), Y0; VMOVUPD 32(DI), Y1
#define YLOAD4 YLOAD2; VMOVUPD 64(DI), Y2; VMOVUPD 96(DI), Y3
#define YLOAD6 YLOAD4; VMOVUPD 128(DI), Y4; VMOVUPD 160(DI), Y5
#define YLOAD8 YLOAD6; VMOVUPD 192(DI), Y6; VMOVUPD 224(DI), Y7

#define YSTORE2 VMOVUPD Y0, (DI); VMOVUPD Y1, 32(DI)
#define YSTORE4 YSTORE2; VMOVUPD Y2, 64(DI); VMOVUPD Y3, 96(DI)
#define YSTORE6 YSTORE4; VMOVUPD Y4, 128(DI); VMOVUPD Y5, 160(DI)
#define YSTORE8 YSTORE6; VMOVUPD Y6, 192(DI); VMOVUPD Y7, 224(DI)

// YPASS loads one pass's lanes of spin j's block, applies the list from
// R9 to R11 (at least one entry), and stores them back.
#define YPASS(load, steps, store, loop) \
	load                        \
	MOVQ         R9, R10        \
loop:                               \
	MOVLQSX      (R10), AX      \
	VBROADCASTSD (SI)(AX*8), Y8 \
	IMULQ        R12, AX        \
	ADDQ         DX, AX         \
	steps                       \
	ADDQ         $4, R10        \
	CMPQ         R10, R11       \
	JNE          loop           \
	store

// func pullDenseAVX2(row *float64, flips *int32, nf int, deltas *float64, field *float64, width int)
//
// One visit's pull: field[k] += row[i]·δ_i[k] for each listed i (nf ≥ 1).
TEXT ·pullDenseAVX2(SB), NOSPLIT, $0-48
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
	YPASS(YLOAD8, YSTEP8, YSTORE8, w64lo)
	ADDQ $256, DI
	ADDQ $256, DX
	YPASS(YLOAD8, YSTEP8, YSTORE8, w64hi)
	VZEROUPPER
	RET

w32:
	YPASS(YLOAD8, YSTEP8, YSTORE8, w32loop)
	VZEROUPPER
	RET

w24:
	YPASS(YLOAD6, YSTEP6, YSTORE6, w24loop)
	VZEROUPPER
	RET

w16:
	YPASS(YLOAD4, YSTEP4, YSTORE4, w16loop)
	VZEROUPPER
	RET

w8:
	YPASS(YLOAD2, YSTEP2, YSTORE2, w8loop)
	VZEROUPPER
	RET

// YNEXT advances R9 past the list entries ≤ j (BX), finishing the flush
// once none is left, and falls into body.
#define YNEXT(skip, body) \
skip:                       \
	CMPQ    R9, R11     \
	JEQ     done        \
	MOVLQSX (R9), AX    \
	CMPQ    AX, BX      \
	JGT     body        \
	ADDQ    $4, R9      \
	JMP     skip        \
body:

// YSPIN moves on to spin j+1: its J row and its field block.
#define YSPIN(skip) \
	INCQ BX      \
	ADDQ R8, SI  \
	ADDQ R12, DI \
	JMP  skip

// func flushDenseAVX2(jdata *float64, n int, flips *int32, nf int, deltas *float64, fields *float64, width int)
//
// One sweep's flush: for j = 0, 1, … while some listed i exceeds j, spin
// j's block takes J[j][i]·δ_i for each listed i > j, in list order.
TEXT ·flushDenseAVX2(SB), NOSPLIT, $0-56
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

	YNEXT(w64skip, w64body)
	YPASS(YLOAD8, YSTEP8, YSTORE8, w64lo)
	ADDQ $256, DI
	ADDQ $256, DX
	YPASS(YLOAD8, YSTEP8, YSTORE8, w64hi)
	SUBQ $256, DI
	SUBQ $256, DX
	YSPIN(w64skip)

w32:
	YNEXT(w32skip, w32body)
	YPASS(YLOAD8, YSTEP8, YSTORE8, w32loop)
	YSPIN(w32skip)

w24:
	YNEXT(w24skip, w24body)
	YPASS(YLOAD6, YSTEP6, YSTORE6, w24loop)
	YSPIN(w24skip)

w16:
	YNEXT(w16skip, w16body)
	YPASS(YLOAD4, YSTEP4, YSTORE4, w16loop)
	YSPIN(w16skip)

w8:
	YNEXT(w8skip, w8body)
	YPASS(YLOAD2, YSTEP2, YSTORE2, w8loop)
	YSPIN(w8skip)

done:
	VZEROUPPER
	RET

// func flipApplyCSRAVX2(cols *int32, ws *float64, nnz int, fields *float64, width int, d *[64]float64, groups *int32, ng int)
//
// fields[cols[k]·width+g·4 .. +4] += ws[k]·d[g·4 .. +4] for each stored
// coupling k and each active group g. Multiply then add as two
// separately-rounded ops, matching the scalar fj[b] += w*d[b]. One active
// group hoists the group's offset and deltas out of the entry walk; every
// group active unrolls at 16 groups (width 64), narrower windows take the
// group loop.
TEXT ·flipApplyCSRAVX2(SB), NOSPLIT, $0-64
	MOVQ  cols+0(FP), SI
	MOVQ  ws+8(FP), DX
	MOVQ  nnz+16(FP), R8
	MOVQ  fields+24(FP), DI
	MOVQ  width+32(FP), CX
	MOVQ  d+40(FP), R9
	MOVQ  groups+48(FP), R10
	MOVQ  ng+56(FP), R11
	SHLQ  $3, CX // field block stride: width lanes · 8 bytes
	TESTQ R8, R8
	JE    done
	XORQ  R12, R12 // k
	CMPQ  R11, $1
	JE    onegroup
	MOVQ  CX, R13
	SHRQ  $5, R13 // the window's group count, width/4
	CMPQ  R11, R13
	JNE   anygroups
	CMPQ  R13, $16
	JE    full16

anygroups:
	TESTQ R11, R11
	JE    done

entryloop:
	MOVLQSX      (SI)(R12*4), R13 // j = cols[k]
	IMULQ        CX, R13          // j·stride
	LEAQ         (DI)(R13*1), R14 // lane block of spin j
	VBROADCASTSD (DX)(R12*8), Y0  // w = ws[k]
	XORQ         BX, BX

grouploop:
	MOVLQSX (R10)(BX*4), AX
	SHLQ    $5, AX
	VMOVUPD (R9)(AX*1), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (R14)(AX*1), Y1, Y2
	VMOVUPD Y2, (R14)(AX*1)
	INCQ    BX
	CMPQ    BX, R11
	JNE     grouploop

	INCQ R12
	CMPQ R12, R8
	JNE  entryloop
	JMP  done

onegroup:
	MOVLQSX (R10), AX
	SHLQ    $5, AX
	ADDQ    AX, DI         // field base offset to the active group
	VMOVUPD (R9)(AX*1), Y3 // the group's deltas, hoisted

oneentry:
	MOVLQSX      (SI)(R12*4), R13
	IMULQ        CX, R13
	VBROADCASTSD (DX)(R12*8), Y0
	VMULPD       Y3, Y0, Y1
	VADDPD       (DI)(R13*1), Y1, Y2
	VMOVUPD      Y2, (DI)(R13*1)
	INCQ         R12
	CMPQ         R12, R8
	JNE          oneentry
	JMP          done

#define FLIPGROUPR14(off) \
	VMOVUPD off(R9), Y1  \
	VMULPD  Y0, Y1, Y1   \
	VADDPD  off(R14), Y1, Y2 \
	VMOVUPD Y2, off(R14)

full16:
	MOVLQSX      (SI)(R12*4), R13
	IMULQ        CX, R13
	LEAQ         (DI)(R13*1), R14
	VBROADCASTSD (DX)(R12*8), Y0
	FLIPGROUPR14(0)
	FLIPGROUPR14(32)
	FLIPGROUPR14(64)
	FLIPGROUPR14(96)
	FLIPGROUPR14(128)
	FLIPGROUPR14(160)
	FLIPGROUPR14(192)
	FLIPGROUPR14(224)
	FLIPGROUPR14(256)
	FLIPGROUPR14(288)
	FLIPGROUPR14(320)
	FLIPGROUPR14(352)
	FLIPGROUPR14(384)
	FLIPGROUPR14(416)
	FLIPGROUPR14(448)
	FLIPGROUPR14(480)
	INCQ R12
	CMPQ R12, R8
	JNE  full16

done:
	VZEROUPPER
	RET

// func flipApplySingleCSRAVX2(cols *int32, ws *float64, nnz int, fieldsLane *float64, width int, delta float64)
//
// One-lane flip: fieldsLane[cols[k]·width] += ws[k]·delta — the scalar
// flip loop at a stride of width·8 bytes. VEX scalar ops keep the upper
// ymm state clean, so no VZEROUPPER is needed.
TEXT ·flipApplySingleCSRAVX2(SB), NOSPLIT, $0-48
	MOVQ   cols+0(FP), SI
	MOVQ   ws+8(FP), DX
	MOVQ   nnz+16(FP), R8
	MOVQ   fieldsLane+24(FP), DI
	MOVQ   width+32(FP), R9
	VMOVSD delta+40(FP), X0
	SHLQ   $3, R9 // stride bytes
	TESTQ  R8, R8
	JE     done
	XORQ   R12, R12

loop:
	MOVLQSX (SI)(R12*4), R13
	IMULQ   R9, R13
	VMOVSD  (DX)(R12*8), X1
	VMULSD  X0, X1, X1
	VADDSD  (DI)(R13*1), X1, X2
	VMOVSD  X2, (DI)(R13*1)
	INCQ    R12
	CMPQ    R12, R8
	JNE     loop

done:
	RET

// func axpyAVX2(a float64, x, y *float64, n int)
//
// The scalar dense machine's flip: y[j] = x[j]·a + y[j] for j < n, two
// ymm of four lanes per step, then one lane at a time. Each product and
// each sum is rounded on its own (VMULPD then VADDPD, never FMA) with the
// product as the add's first operand, which is the MULSD/ADDSD pair gc
// compiles axpyGo's loop body to, so y matches it bit for bit. Every
// instruction is VEX-encoded: a legacy SSE instruction after a ymm write
// costs a state transition on every call.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX // lanes the two-ymm steps cover
	JE           tail

wide:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JNE     wide

tail:
	CMPQ AX, CX
	JE   done

one:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JNE    one

done:
	VZEROUPPER
	RET

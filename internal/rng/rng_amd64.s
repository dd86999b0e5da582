#include "textflag.h"

// Bit-pattern constants for the exact uint64→float64 conversion and the
// [-1, 1) mapping. All are broadcast 4-wide.
DATA maskLo32<>+0(SB)/8, $0x00000000ffffffff
DATA maskLo32<>+8(SB)/8, $0x00000000ffffffff
DATA maskLo32<>+16(SB)/8, $0x00000000ffffffff
DATA maskLo32<>+24(SB)/8, $0x00000000ffffffff
GLOBL maskLo32<>(SB), RODATA|NOPTR, $32

// double 2^52 (exponent-only pattern; OR-ing a <2^32 integer into the
// mantissa yields the exact double 2^52+v).
DATA magic52<>+0(SB)/8, $0x4330000000000000
DATA magic52<>+8(SB)/8, $0x4330000000000000
DATA magic52<>+16(SB)/8, $0x4330000000000000
DATA magic52<>+24(SB)/8, $0x4330000000000000
GLOBL magic52<>(SB), RODATA|NOPTR, $32

// double 2^84: OR-ing the high 32 result bits into the mantissa yields the
// exact double 2^84 + hi·2^32.
DATA magic84<>+0(SB)/8, $0x4530000000000000
DATA magic84<>+8(SB)/8, $0x4530000000000000
DATA magic84<>+16(SB)/8, $0x4530000000000000
DATA magic84<>+24(SB)/8, $0x4530000000000000
GLOBL magic84<>(SB), RODATA|NOPTR, $32

// double 2^84 + 2^52, subtracted from the high part so hi+lo reassemble the
// original 53-bit integer exactly.
DATA c84p52<>+0(SB)/8, $0x4530000000100000
DATA c84p52<>+8(SB)/8, $0x4530000000100000
DATA c84p52<>+16(SB)/8, $0x4530000000100000
DATA c84p52<>+24(SB)/8, $0x4530000000100000
GLOBL c84p52<>(SB), RODATA|NOPTR, $32

// double 2^-52: v·2^-52 equals the scalar path's 2·(v/2^53) exactly.
DATA c2m52<>+0(SB)/8, $0x3cb0000000000000
DATA c2m52<>+8(SB)/8, $0x3cb0000000000000
DATA c2m52<>+16(SB)/8, $0x3cb0000000000000
DATA c2m52<>+24(SB)/8, $0x3cb0000000000000
GLOBL c2m52<>(SB), RODATA|NOPTR, $32

DATA one<>+0(SB)/8, $0x3ff0000000000000
DATA one<>+8(SB)/8, $0x3ff0000000000000
DATA one<>+16(SB)/8, $0x3ff0000000000000
DATA one<>+24(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $32

// func fillSym4AVX2(state *[16]uint64, dst *float64, n, strideBytes int)
//
// state is structure-of-arrays: words 0-3 are the four lanes' s0, words
// 4-7 s1, 8-11 s2, 12-15 s3. Each iteration emits one draw per lane,
// stored as a contiguous 32-byte quad at dst, then advances dst by
// strideBytes. The per-lane streams are bit-identical to Source.Sym.
TEXT ·fillSym4AVX2(SB), NOSPLIT, $0-32
	MOVQ state+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ strideBytes+24(FP), R9

	VMOVDQU (SI), Y0       // s0 lanes
	VMOVDQU 32(SI), Y1     // s1 lanes
	VMOVDQU 64(SI), Y2     // s2 lanes
	VMOVDQU 96(SI), Y3     // s3 lanes

	VMOVDQU maskLo32<>(SB), Y8
	VMOVDQU magic52<>(SB), Y9
	VMOVDQU magic84<>(SB), Y10
	VMOVUPD c84p52<>(SB), Y11
	VMOVUPD c2m52<>(SB), Y12
	VMOVUPD one<>(SB), Y13

	TESTQ CX, CX
	JZ    done

loop:
	// result = rotl(s1*5, 7) * 9
	VPSLLQ $2, Y1, Y4
	VPADDQ Y1, Y4, Y4      // s1*5
	VPSLLQ $7, Y4, Y5
	VPSRLQ $57, Y4, Y6
	VPOR   Y5, Y6, Y5      // rotl(·, 7)
	VPSLLQ $3, Y5, Y6
	VPADDQ Y5, Y6, Y7      // ·*9

	// xoshiro256** state transition
	VPSLLQ $17, Y1, Y4     // t = s1 << 17
	VPXOR  Y0, Y2, Y2      // s2 ^= s0
	VPXOR  Y1, Y3, Y3      // s3 ^= s1
	VPXOR  Y2, Y1, Y1      // s1 ^= s2
	VPXOR  Y3, Y0, Y0      // s0 ^= s3
	VPXOR  Y4, Y2, Y2      // s2 ^= t
	VPSLLQ $45, Y3, Y5
	VPSRLQ $19, Y3, Y6
	VPOR   Y5, Y6, Y3      // s3 = rotl(s3, 45)

	// v = result >> 11, converted exactly, mapped to v·2^-52 − 1.
	VPSRLQ $11, Y7, Y7
	VPAND  Y8, Y7, Y4      // low 32 bits
	VPSRLQ $32, Y7, Y5     // high bits
	VPOR   Y9, Y4, Y4      // double(2^52 + lo)
	VPOR   Y10, Y5, Y5     // double(2^84 + hi·2^32)
	VSUBPD Y11, Y5, Y5     // hi·2^32 − 2^52
	VADDPD Y4, Y5, Y4      // = v, exact
	VMULPD Y12, Y4, Y4     // v·2^-52
	VSUBPD Y13, Y4, Y4     // − 1
	VMOVUPD Y4, (DI)

	ADDQ R9, DI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VMOVDQU Y3, 96(SI)
	VZEROUPPER
	RET

// func fillSym8AVX2(state *[32]uint64, dst *float64, n, strideBytes int)
//
// Two independent 4-wide xoshiro256** chains (quad A = lanes 0-3 in
// Y0-Y3, quad B = lanes 4-7 in Y4-Y7; state word w of lane l at
// state[8w+l]) stepped per round, emitting 8 contiguous draws (one full
// cache line) at dst before advancing by strideBytes. The two chains' dependency
// graphs are disjoint, so their state-transition latencies overlap — this
// is what the single-chain 4-wide kernel is bound on. Constants come from
// memory operands to keep all 16 ymm registers for chain state and temps.
// Per-lane streams are bit-identical to Source.Sym.
TEXT ·fillSym8AVX2(SB), NOSPLIT, $0-32
	MOVQ state+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ strideBytes+24(FP), R9

	VMOVDQU (SI), Y0    // A: s0
	VMOVDQU 64(SI), Y1  // A: s1
	VMOVDQU 128(SI), Y2 // A: s2
	VMOVDQU 192(SI), Y3 // A: s3
	VMOVDQU 32(SI), Y4  // B: s0
	VMOVDQU 96(SI), Y5  // B: s1
	VMOVDQU 160(SI), Y6 // B: s2
	VMOVDQU 224(SI), Y7 // B: s3

	TESTQ CX, CX
	JZ    done

loop:
	// result = rotl(s1*5, 7) * 9, both chains interleaved
	VPSLLQ $2, Y1, Y8
	VPSLLQ $2, Y5, Y12
	VPADDQ Y1, Y8, Y8
	VPADDQ Y5, Y12, Y12
	VPSLLQ $7, Y8, Y9
	VPSLLQ $7, Y12, Y13
	VPSRLQ $57, Y8, Y10
	VPSRLQ $57, Y12, Y14
	VPOR   Y9, Y10, Y9
	VPOR   Y13, Y14, Y13
	VPSLLQ $3, Y9, Y10
	VPSLLQ $3, Y13, Y14
	VPADDQ Y9, Y10, Y11 // A result
	VPADDQ Y13, Y14, Y15 // B result

	// xoshiro256** state transition, both chains
	VPSLLQ $17, Y1, Y8 // A: t
	VPSLLQ $17, Y5, Y12 // B: t
	VPXOR  Y0, Y2, Y2
	VPXOR  Y4, Y6, Y6
	VPXOR  Y1, Y3, Y3
	VPXOR  Y5, Y7, Y7
	VPXOR  Y2, Y1, Y1
	VPXOR  Y6, Y5, Y5
	VPXOR  Y3, Y0, Y0
	VPXOR  Y7, Y4, Y4
	VPXOR  Y8, Y2, Y2
	VPXOR  Y12, Y6, Y6
	VPSLLQ $45, Y3, Y9
	VPSLLQ $45, Y7, Y13
	VPSRLQ $19, Y3, Y10
	VPSRLQ $19, Y7, Y14
	VPOR   Y9, Y10, Y3
	VPOR   Y13, Y14, Y7

	// v = result >> 11, exact conversion, map to v·2^-52 − 1
	VPSRLQ $11, Y11, Y11
	VPSRLQ $11, Y15, Y15
	VPAND  maskLo32<>(SB), Y11, Y8
	VPAND  maskLo32<>(SB), Y15, Y12
	VPSRLQ $32, Y11, Y9
	VPSRLQ $32, Y15, Y13
	VPOR   magic52<>(SB), Y8, Y8
	VPOR   magic52<>(SB), Y12, Y12
	VPOR   magic84<>(SB), Y9, Y9
	VPOR   magic84<>(SB), Y13, Y13
	VSUBPD c84p52<>(SB), Y9, Y9
	VSUBPD c84p52<>(SB), Y13, Y13
	VADDPD Y8, Y9, Y8
	VADDPD Y12, Y13, Y12
	VMULPD c2m52<>(SB), Y8, Y8
	VMULPD c2m52<>(SB), Y12, Y12
	VSUBPD one<>(SB), Y8, Y8
	VSUBPD one<>(SB), Y12, Y12
	VMOVUPD Y8, (DI)
	VMOVUPD Y12, 32(DI)

	ADDQ R9, DI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 64(SI)
	VMOVDQU Y2, 128(SI)
	VMOVDQU Y3, 192(SI)
	VMOVDQU Y4, 32(SI)
	VMOVDQU Y5, 96(SI)
	VMOVDQU Y6, 160(SI)
	VMOVDQU Y7, 224(SI)
	VZEROUPPER
	RET

// func fillSym8AVX512(state *[32]uint64, dst *float64, n, strideBytes int)
//
// One 8-lane xoshiro256** chain: Z0-Z3 hold the eight sources' s0…s3 (the
// fillSym8AVX2 state layout), so each round is one chain step emitting 8
// contiguous draws (one full cache line) at dst before advancing by
// strideBytes. VPROLQ does both
// rotations in one instruction each, and VCVTUQQ2PD converts r>>11
// (below 2^53) to float64 exactly, replacing the AVX2 kernel's magic-
// number split. Multiply and subtract stay separate, so per-lane streams
// are bit-identical to Source.Sym.
TEXT ·fillSym8AVX512(SB), NOSPLIT, $0-32
	MOVQ state+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ strideBytes+24(FP), R9

	VMOVDQU64 (SI), Z0    // s0
	VMOVDQU64 64(SI), Z1  // s1
	VMOVDQU64 128(SI), Z2 // s2
	VMOVDQU64 192(SI), Z3 // s3
	VBROADCASTSD c2m52<>(SB), Z12
	VBROADCASTSD one<>(SB), Z13

	TESTQ CX, CX
	JZ    done

loop:
	// result = rotl(s1*5, 7) * 9
	VPSLLQ $2, Z1, Z4
	VPADDQ Z1, Z4, Z4 // s1*5
	VPROLQ $7, Z4, Z4
	VPSLLQ $3, Z4, Z5
	VPADDQ Z4, Z5, Z5 // ·*9

	// xoshiro256** state transition
	VPSLLQ $17, Z1, Z6 // t = s1 << 17
	VPXORQ Z0, Z2, Z2  // s2 ^= s0
	VPXORQ Z1, Z3, Z3  // s3 ^= s1
	VPXORQ Z2, Z1, Z1  // s1 ^= s2
	VPXORQ Z3, Z0, Z0  // s0 ^= s3
	VPXORQ Z6, Z2, Z2  // s2 ^= t
	VPROLQ $45, Z3, Z3 // s3 = rotl(s3, 45)

	// v = result >> 11, converted exactly, mapped to v·2^-52 − 1.
	VPSRLQ     $11, Z5, Z5
	VCVTUQQ2PD Z5, Z5
	VMULPD     Z12, Z5, Z5
	VSUBPD     Z13, Z5, Z5
	VMOVUPD    Z5, (DI)

	ADDQ R9, DI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z1, 64(SI)
	VMOVDQU64 Z2, 128(SI)
	VMOVDQU64 Z3, 192(SI)
	VZEROUPPER
	RET

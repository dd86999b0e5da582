package rng

import "github.com/ising-machines/saim/internal/cpufeat"

// fillSym4AVX2 steps four xoshiro256** states (structure-of-arrays: word
// l of quad w holds source l's state word w) n times, writing each round's
// four [-1, 1) draws contiguously at dst, dst+strideBytes, …. Implemented
// in rng_amd64.s; the conversion arithmetic is bit-identical to Sym.
//
//go:noescape
func fillSym4AVX2(state *[16]uint64, dst *float64, n, strideBytes int)

// fillSym4 dispatches FillSym4Strided to the AVX2 kernel when available.
// The state gather/scatter around the call is O(1) per batch.
//
//saim:hotpath
func fillSym4(srcs *[4]*Source, dst []float64, n, stride int) {
	if !cpufeat.HasAVX2 {
		fillSym4Generic(srcs, dst, n, stride)
		return
	}
	var st [16]uint64
	for l, s := range srcs {
		st[l], st[4+l], st[8+l], st[12+l] = s.s0, s.s1, s.s2, s.s3
	}
	fillSym4AVX2(&st, &dst[0], n, stride*8)
	for l, s := range srcs {
		s.s0, s.s1, s.s2, s.s3 = st[l], st[4+l], st[8+l], st[12+l]
	}
}

// fillSym8AVX2 and fillSym8AVX512 step eight xoshiro256** states held
// structure-of-arrays (words 0-7 the eight sources' s0, 8-15 s1, 16-23 s2,
// 24-31 s3), writing each round's eight [-1, 1) draws contiguously at dst,
// then advancing by strideBytes. The AVX2 kernel steps lanes 0-3 and 4-7
// as two interleaved 4-wide chains; the AVX-512 kernel holds each state
// word of all eight lanes in one zmm register.
//
//go:noescape
func fillSym8AVX2(state *[32]uint64, dst *float64, n, strideBytes int)

//go:noescape
func fillSym8AVX512(state *[32]uint64, dst *float64, n, strideBytes int)

// fillSym8 dispatches FillSym8Strided to the widest kernel the CPU has:
// AVX-512, AVX2, then portable. It reads the cpufeat flags on every call
// so tests can force each tier.
//
//saim:hotpath
func fillSym8(srcs *[8]*Source, dst []float64, n, stride int) {
	if !cpufeat.HasAVX2 {
		fillSym8Generic(srcs, dst, n, stride)
		return
	}
	var st [32]uint64
	for l, s := range srcs {
		st[l], st[8+l], st[16+l], st[24+l] = s.s0, s.s1, s.s2, s.s3
	}
	d := &dst[0]
	if cpufeat.HasAVX512 {
		fillSym8AVX512(&st, d, n, stride*8)
	} else {
		fillSym8AVX2(&st, d, n, stride*8)
	}
	for l, s := range srcs {
		s.s0, s.s1, s.s2, s.s3 = st[l], st[8+l], st[16+l], st[24+l]
	}
}

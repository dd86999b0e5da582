package rng

import (
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/cpufeat"
)

// Differential pins for the strided-fill dispatchers: fillSym4 and
// fillSym8 must write the same draws AND leave their sources in the same
// state under every vector tier and the portable path — a state divergence
// would silently fork every later draw, so the continuation stream is part
// of the contract. fillSym4 has an AVX2 kernel only; without AVX2 hardware
// its comparison is vacuous. fillSym8's tiers the CPU lacks are skipped.

func TestFillSym4DispatchNativeMatchesPortable(t *testing.T) {
	saved := cpufeat.HasAVX2
	defer func() { cpufeat.HasAVX2 = saved }()

	for _, n := range []int{1, 7, 64, 129} {
		const stride = 6
		mk := func() *[4]*Source {
			var srcs [4]*Source
			for l := range srcs {
				srcs[l] = New(uint64(1000*n + l))
			}
			return &srcs
		}

		cpufeat.HasAVX2 = saved
		nativeSrc := mk()
		native := make([]float64, n*stride)
		fillSym4(nativeSrc, native, n, stride)

		cpufeat.HasAVX2 = false
		portableSrc := mk()
		portable := make([]float64, n*stride)
		fillSym4(portableSrc, portable, n, stride)

		for i := range native {
			if math.Float64bits(native[i]) != math.Float64bits(portable[i]) {
				t.Fatalf("n=%d: draw %d diverges: native %x portable %x",
					n, i, math.Float64bits(native[i]), math.Float64bits(portable[i]))
			}
		}
		for l := 0; l < 4; l++ {
			if a, b := nativeSrc[l].Sym(), portableSrc[l].Sym(); a != b {
				t.Fatalf("n=%d: source %d state diverged: next draw %v vs %v", n, l, a, b)
			}
		}
	}
}

// The detected tiers, captured before any test forces the flags.
var hasAVX512, hasAVX2 = cpufeat.HasAVX512, cpufeat.HasAVX2

// withTier runs f with the dispatchers forced onto one kernel tier —
// "avx512", "avx2" or "portable" — then restores the detected flags.
func withTier(tier string, f func()) {
	cpufeat.HasAVX512 = tier == "avx512"
	cpufeat.HasAVX2 = tier == "avx512" || tier == "avx2"
	defer func() { cpufeat.HasAVX512, cpufeat.HasAVX2 = hasAVX512, hasAVX2 }()
	f()
}

// vectorTiers runs f as one subtest per vector tier; a tier this CPU lacks
// is skipped, so -v shows which legs ran.
func vectorTiers(t *testing.T, f func(t *testing.T, tier string)) {
	for _, tier := range []struct {
		name string
		ok   bool
	}{{"avx512", hasAVX512}, {"avx2", hasAVX2}} {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.ok {
				t.Skipf("this CPU lacks the %s tier", tier.name)
			}
			f(t, tier.name)
		})
	}
}

// fillSym8 under each vector tier against the portable body, at lengths
// around the loop edges.
func TestFillSym8DispatchNativeMatchesPortable(t *testing.T) {
	vectorTiers(t, func(t *testing.T, tier string) {
		for _, n := range []int{1, 7, 64, 129} {
			const stride = 11
			mk := func() *[8]*Source {
				var srcs [8]*Source
				for l := range srcs {
					srcs[l] = New(uint64(2000*n + l))
				}
				return &srcs
			}

			nativeSrc, native := mk(), make([]float64, n*stride)
			withTier(tier, func() { fillSym8(nativeSrc, native, n, stride) })
			portableSrc, portable := mk(), make([]float64, n*stride)
			withTier("portable", func() { fillSym8(portableSrc, portable, n, stride) })

			for i := range native {
				if math.Float64bits(native[i]) != math.Float64bits(portable[i]) {
					t.Fatalf("n=%d: draw %d diverges: %s %x portable %x",
						n, i, tier, math.Float64bits(native[i]), math.Float64bits(portable[i]))
				}
			}
			for l := 0; l < 8; l++ {
				if a, b := nativeSrc[l].Sym(), portableSrc[l].Sym(); a != b {
					t.Fatalf("n=%d: source %d state diverged: next draw %v vs %v", n, l, a, b)
				}
			}
		}
	})
}

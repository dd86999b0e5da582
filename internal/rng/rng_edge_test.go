package rng

import (
	"testing"

	"github.com/ising-machines/saim/internal/cpufeat"
)

// FillSym must be bit-identical to per-call Sym at every batch length the
// kernels can request — in particular around the 64-element word width the
// packed sweep draws, where an off-by-one in a batched filler would
// silently shift every later draw. Length 0 pins the no-op contract.
func TestFillSymEdgeLengths(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65} {
		ref := New(99)
		want := make([]float64, n)
		for i := range want {
			want[i] = ref.Sym()
		}
		src := New(99)
		got := make([]float64, n)
		src.FillSym(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: FillSym[%d] = %v, Sym stream has %v", n, i, got[i], want[i])
			}
		}
		// The generator must land in the same state: the next draws agree.
		if a, b := src.Sym(), ref.Sym(); a != b {
			t.Fatalf("n=%d: post-batch state diverged: %v vs %v", n, a, b)
		}
	}
}

func TestFillSymStridedMatchesSym(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65} {
		for _, stride := range []int{1, 3, 64} {
			ref := New(7)
			src := New(7)
			size := 1
			if n > 0 {
				size = (n-1)*stride + 1
			}
			dst := make([]float64, size)
			for i := range dst {
				dst[i] = 42 // sentinel: strided fill must not touch gaps
			}
			src.FillSymStrided(dst, n, stride)
			for k := 0; k < n; k++ {
				if want := ref.Sym(); dst[k*stride] != want {
					t.Fatalf("n=%d stride=%d: draw %d = %v, want %v", n, stride, k, dst[k*stride], want)
				}
			}
			for i, v := range dst {
				if n > 0 && i%stride == 0 && i/stride < n {
					continue
				}
				if v != 42 {
					t.Fatalf("n=%d stride=%d: gap %d overwritten with %v", n, stride, i, v)
				}
			}
			if a, b := src.Sym(), ref.Sym(); a != b {
				t.Fatalf("n=%d stride=%d: post-batch state diverged", n, stride)
			}
		}
	}
}

// fillSym4Variants runs FillSym4Strided under every available kernel (the
// AVX2 path where the host supports it, and the portable path with the
// feature flag cleared) and hands each result to check.
func fillSym4Variants(t *testing.T, run func() [4][]float64, check func(name string, got [4][]float64)) {
	t.Helper()
	check("native", run())
	if cpufeat.HasAVX2 {
		cpufeat.HasAVX2 = false
		defer func() { cpufeat.HasAVX2 = true }()
		check("portable", run())
	}
}

// FillSym4Strided interleaves four independent generators without
// disturbing any single lane's stream: every lane must reproduce its own
// Sym sequence bit-for-bit, on both the vector and the portable kernel.
func TestFillSym4StridedLaneIdentity(t *testing.T) {
	const stride = 64
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		run := func() [4][]float64 {
			srcs := &[4]*Source{New(1), New(2), New(3), New(4)}
			size := 4
			if n > 0 {
				size = (n-1)*stride + 4
			}
			dst := make([]float64, size)
			FillSym4Strided(srcs, dst, n, stride)
			var lanes [4][]float64
			for l := 0; l < 4; l++ {
				lane := make([]float64, n+1)
				for k := 0; k < n; k++ {
					lane[k] = dst[k*stride+l]
				}
				lane[n] = srcs[l].Sym() // post-batch state probe
				lanes[l] = lane
			}
			return lanes
		}
		fillSym4Variants(t, run, func(name string, lanes [4][]float64) {
			for l := 0; l < 4; l++ {
				ref := New(uint64(l + 1))
				for k := 0; k <= n; k++ {
					if want := ref.Sym(); lanes[l][k] != want {
						t.Fatalf("%s n=%d lane %d draw %d: got %v, want %v", name, n, l, k, lanes[l][k], want)
					}
				}
			}
		})
	}
}

// FillSym8Strided interleaves eight independent generators: every lane
// must reproduce its own Sym sequence bit-for-bit, on every kernel tier
// the CPU has.
func TestFillSym8StridedLaneIdentity(t *testing.T) {
	const stride = 64
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		run := func() [8][]float64 {
			var srcs [8]*Source
			for l := range srcs {
				srcs[l] = New(uint64(l + 1))
			}
			size := 8
			if n > 0 {
				size = (n-1)*stride + 8
			}
			dst := make([]float64, size)
			FillSym8Strided(&srcs, dst, n, stride)
			var lanes [8][]float64
			for l := 0; l < 8; l++ {
				lane := make([]float64, n+1)
				for k := 0; k < n; k++ {
					lane[k] = dst[k*stride+l]
				}
				lane[n] = srcs[l].Sym() // post-batch state probe
				lanes[l] = lane
			}
			return lanes
		}
		check := func(name string, lanes [8][]float64) {
			for l := 0; l < 8; l++ {
				ref := New(uint64(l + 1))
				for k := 0; k <= n; k++ {
					if want := ref.Sym(); lanes[l][k] != want {
						t.Fatalf("%s n=%d lane %d draw %d: got %v, want %v", name, n, l, k, lanes[l][k], want)
					}
				}
			}
		}
		for _, tier := range []struct {
			name string
			ok   bool
		}{{"avx512", hasAVX512}, {"avx2", hasAVX2}, {"portable", true}} {
			if tier.ok {
				withTier(tier.name, func() { check(tier.name, run()) })
			}
		}
	}
}

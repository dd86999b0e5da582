package pbit

import (
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/vecmat"
)

// fuzzPalette is what a fuzzed coupling or bias byte selects from: both
// zeros (pull adds J·0 terms push never did, and J may hold −0 where its
// transpose holds +0), tiny and subnormal values whose products round,
// ordinary values, and values that saturate β·I at once.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300,
	0.1, -0.3, 0.5, -1, 1, 2.75, -3.7, 64, -64, 1e6, -1e6,
}

// fuzzModel builds an n-spin model whose couplings (i < j, row-major) and
// then biases take their values from b through fuzzPalette, cycling b; an
// empty b gives the all-zero model. A zero coupling whose byte has the
// high bit set becomes −0 above the diagonal only, so J[i][j] and J[j][i]
// differ in the sign of zero.
func fuzzModel(n int, b []byte) *ising.Model {
	at := 0
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		at++
		return b[(at-1)%len(b)]
	}
	j := vecmat.NewSym(n)
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			v := next()
			j.Set(r, c, fuzzPalette[int(v)%len(fuzzPalette)])
			if v&0x80 != 0 && j.At(r, c) == 0 {
				j.Row(r)[c] = math.Copysign(0, -1) // this side only
			}
		}
	}
	h := vecmat.NewVec(n)
	for i := range h {
		h[i] = fuzzPalette[int(next())%len(fuzzPalette)]
	}
	return &ising.Model{J: j, H: h}
}

// FuzzPackedMatchesScalar searches for packed/scalar divergence: a dense
// packed machine at 1–8 windows, under every kernel tier this CPU has,
// sweeps a fuzzed model along a fuzzed β ramp in lockstep with 64 scalar
// machines on the same per-lane sources; after every sweep each lane's
// states must equal its scalar twin's, and its fields must too, up to the
// sign of zero.
func FuzzPackedMatchesScalar(f *testing.F) {
	f.Add(uint8(9), []byte{0, 0, 0, 0, 0, 0, 0, 0, 11, 7, 3, 1, 14, 2, 9, 13}, uint64(1), uint8(1), uint8(12), uint8(0), uint8(40))
	f.Add(uint8(0), []byte{5}, uint64(2), uint8(7), uint8(5), uint8(8), uint8(255))
	f.Add(uint8(39), []byte{1, 129, 16, 6, 12, 3, 15, 10, 4, 8}, uint64(3), uint8(2), uint8(20), uint8(1), uint8(200))
	f.Add(uint8(23), []byte{128, 2, 0, 13, 131, 9}, uint64(4), uint8(4), uint8(9), uint8(30), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw uint8, couplings []byte, seed uint64, winRaw, sweepRaw, beta0, beta1 uint8) {
		n := 1 + int(nRaw)%40
		model := fuzzModel(n, couplings)
		windows := 1 + int(winRaw)%maxWindows
		sweeps := 1 + int(sweepRaw)%24
		start, end := float64(beta0)/32, float64(beta1)/16

		tiers := []string{"portable"}
		if hasAVX2 {
			tiers = append(tiers, "avx2")
		}
		if hasAVX512 {
			tiers = append(tiers, "avx512")
		}
		pms := make([]*PackedMachine, len(tiers))
		for k, tier := range tiers {
			pms[k] = NewPackedWindows(model, rng.New(seed), windows)
			withTier(tier, pms[k].Randomize)
		}
		base := rng.New(seed)
		fleet := make([]*Machine, Lanes)
		for r := range fleet {
			fleet[r] = New(model, base.Split())
			fleet[r].Randomize()
		}

		got := ising.NewSpins(n)
		for step := 0; step < sweeps; step++ {
			beta := start + (end-start)*float64(step)/float64(sweeps)
			for _, m := range fleet {
				m.Sweep(beta)
			}
			for k, tier := range tiers {
				pm := pms[k]
				withTier(tier, func() { pm.Sweep(beta) })
				for r, m := range fleet {
					pm.LaneStateInto(got, r)
					for i, s := range m.State() {
						if got[i] != s {
							t.Fatalf("%s, %d windows, sweep %d: lane %d spin %d: packed %d scalar %d", tier, windows, step, r, i, got[i], s)
						}
						if pf, sf := pm.laneField(i, r), m.field[i]; pf != sf {
							t.Fatalf("%s, %d windows, sweep %d: lane %d spin %d: packed field %v scalar %v", tier, windows, step, r, i, pf, sf)
						}
					}
				}
			}
		}
	})
}

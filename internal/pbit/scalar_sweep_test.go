package pbit

import (
	"fmt"
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/vecmat"
)

// The scalar machines decide their spins a block at a time (Machine.Sweep,
// SparseMachine.Sweep). These tests hold them to the per-spin loop they
// replaced, kept here as the oracle: the same noise draws, wantSpin per
// spin in visit order, and a Go-loop flip. After every sweep the states
// and the fields must match the oracle's bit for bit (NaN payloads and the
// sign of zero included), under every kernel tier.

// refSweepDense is Machine.Sweep as the per-spin loop over the Go flip.
func refSweepDense(m *Machine, beta float64) {
	n := len(m.state)
	noise := m.noise[:n]
	m.src.FillSym(noise)
	for i := 0; i < n; i++ {
		if wantSpin(beta*m.field[i], noise[i]) != m.state[i] {
			old := m.state[i]
			m.state[i] = -old
			delta := float64(-2 * old)
			for j, w := range m.model.J.Row(i) {
				m.field[j] += w * delta
			}
		}
	}
	m.sweeps++
}

// refSweepCSR is SparseMachine.Sweep as the per-spin loop.
func refSweepCSR(m *SparseMachine, beta float64) {
	n := m.n
	noise := m.noise[:n]
	m.src.FillSym(noise)
	for i := 0; i < n; i++ {
		if wantSpin(beta*m.field[i], noise[i]) != m.state[i] {
			old := m.state[i]
			m.state[i] = -old
			delta := float64(-2 * old)
			cols, ws := m.row(i)
			for k, j := range cols {
				m.field[j] += ws[k] * delta
			}
		}
	}
	m.sweeps++
}

// hugeJ is a coupling above MaxFloat64/2: 2J overflows to ±Inf when the
// flip multiplies and adds on their own, while a fused multiply-add next
// to a field of the opposite sign would stay finite.
const hugeJ = 0.75 * math.MaxFloat64

// scalarPalette is fuzzPalette plus ±hugeJ.
var scalarPalette = append(append([]float64(nil), fuzzPalette...), hugeJ, -hugeJ)

// paletteModel builds an n-spin model from b as fuzzModel does, drawing
// from scalarPalette: zeros, −0 on one side of the diagonal, subnormals,
// ordinary and saturating values, and ±hugeJ.
func paletteModel(n int, b []byte) *ising.Model {
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
			j.Set(r, c, scalarPalette[int(v)%len(scalarPalette)])
			if v&0x80 != 0 && j.At(r, c) == 0 {
				j.Row(r)[c] = math.Copysign(0, -1) // this side only
			}
		}
	}
	h := vecmat.NewVec(n)
	for i := range h {
		h[i] = scalarPalette[int(next())%len(scalarPalette)]
	}
	return &ising.Model{J: j, H: h}
}

// sameBits reports whether two float64 slices are identical bit for bit.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// scalarRuns is one differential's schedule: runs of β values, with
// reprogrammed biases before every run after the first, and a fresh
// random state before every other one.
type scalarRuns struct {
	betas  [][]float64
	biases []vecmat.Vec // biases[r-1] before run r
}

// checkScalarSweeps sweeps a dense and a CSR machine under tier in
// lockstep with their oracles on the same seed, and fails at the first
// sweep after which a state or a field differs.
func checkScalarSweeps(t *testing.T, tier string, model *ising.Model, seed uint64, runs scalarRuns) {
	t.Helper()
	d, dr := New(model, rng.New(seed)), New(model, rng.New(seed))
	s, sr := NewSparse(model, rng.New(seed)), NewSparse(model, rng.New(seed))
	for r, betas := range runs.betas {
		if r > 0 {
			h := runs.biases[r-1]
			d.UpdateBiases(h)
			dr.UpdateBiases(h)
			s.UpdateBiases(h)
			sr.UpdateBiases(h)
		}
		if r%2 == 0 {
			d.Randomize()
			dr.Randomize()
			s.Randomize()
			sr.Randomize()
		}
		for step, beta := range betas {
			withTier(tier, func() {
				d.Sweep(beta)
				s.Sweep(beta)
			})
			refSweepDense(dr, beta)
			refSweepCSR(sr, beta)
			for _, c := range []struct {
				kind              string
				got, want         ising.Spins
				fgot, fwant       vecmat.Vec
				sweeps, refSweeps int64
			}{
				{"dense", d.state, dr.state, d.field, dr.field, d.sweeps, dr.sweeps},
				{"CSR", s.state, sr.state, s.field, sr.field, s.sweeps, sr.sweeps},
			} {
				for i := range c.want {
					if c.got[i] != c.want[i] {
						t.Fatalf("%s, %s, run %d sweep %d (β %v): spin %d is %d, per-spin loop %d", tier, c.kind, r, step, beta, i, c.got[i], c.want[i])
					}
				}
				if i, ok := sameBits(c.fgot, c.fwant); !ok {
					t.Fatalf("%s, %s, run %d sweep %d (β %v): field %d is %x, per-spin loop %x", tier, c.kind, r, step, beta,
						i, math.Float64bits(c.fgot[i]), math.Float64bits(c.fwant[i]))
				}
				if c.sweeps != c.refSweeps {
					t.Fatalf("%s, %s: %d sweeps counted, per-spin loop %d", tier, c.kind, c.sweeps, c.refSweeps)
				}
			}
		}
	}
}

// ramp returns steps β values from lo to hi.
func ramp(lo, hi float64, steps int) []float64 {
	out := make([]float64, steps)
	for k := range out {
		out[k] = lo + (hi-lo)*float64(k)/float64(steps-1)
	}
	return out
}

// The block walks against the per-spin loop under every tier, at spin
// counts around the octet and 64-spin block edges (a lone tail, an exact
// octet, one spin past it, a second block and its tail), on random dense
// and sparse models and on palette models holding zeros, −0 on one side
// of the diagonal, subnormals and couplings above MaxFloat64/2; along β
// ramps whose blocks are all on the Padé branch, mixed, or all saturated;
// with biases reprogrammed between runs.
func TestScalarSweepDispatchMatchesReference(t *testing.T) {
	betaRamps := []struct {
		name  string
		betas [][]float64
	}{
		{"pade", [][]float64{ramp(0, 1e-3, 6), ramp(1e-4, 2e-3, 6)}},
		{"mixed", [][]float64{ramp(0, 10, 12), ramp(0.5, 4, 8), ramp(0, 10, 12)}},
		{"saturated", [][]float64{ramp(1e4, 1e6, 4), ramp(1e6, 1e8, 4)}},
	}
	check := func(t *testing.T, tier string) {
		for _, n := range []int{1, 7, 8, 9, 47, 48, 63, 64, 65, 200} {
			src := rng.New(uint64(n)*31 + 7)
			palette := make([]byte, 97)
			for i := range palette {
				palette[i] = byte(src.Uint64())
			}
			models := []struct {
				name  string
				model *ising.Model
			}{
				{"dense", randomModel(src, n)},
				{"sparse", sparseModel(src, n, 0.05)},
				{"palette", paletteModel(n, palette)},
			}
			for _, m := range models {
				for _, r := range betaRamps {
					runs := scalarRuns{betas: r.betas}
					for range r.betas[1:] {
						runs.biases = append(runs.biases, vecmat.Vec(randomFloats(src, n, 3)))
					}
					t.Run(fmt.Sprintf("n=%d/%s/%s", n, m.name, r.name), func(t *testing.T) {
						checkScalarSweeps(t, tier, m.model, uint64(n)+101, runs)
					})
				}
			}
		}
	}
	vectorTiers(t, check)
	t.Run("portable", func(t *testing.T) { check(t, "portable") })
}

// axpy against axpyGo under every tier, at lengths through the vector
// steps and their tails, on values where a fused multiply-add would round
// differently: a product that overflows beside a field of the opposite
// sign, subnormal products, and zeros of both signs.
func TestAxpyDispatchMatchesGo(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, 0.1, -0.3, 1.5, hugeJ, -hugeJ, math.Inf(1), math.NaN()}
	vectorTiers(t, func(t *testing.T, tier string) {
		src := rng.New(3)
		for n := 0; n <= 70; n++ {
			for trial := 0; trial < 8; trial++ {
				x, y := make([]float64, n), make([]float64, n+1)
				for j := range x {
					x[j] = vals[src.Uint64()%uint64(len(vals))]
					y[j] = vals[src.Uint64()%uint64(len(vals))]
					if trial%2 == 0 && x[j] == hugeJ {
						y[j] = -hugeJ // 2·hugeJ − hugeJ: finite only if fused
					}
				}
				y[n] = 42 // past len(x): never written
				for _, a := range []float64{2, -2} {
					want := append([]float64(nil), y...)
					axpyGo(a, x, want)
					got := append([]float64(nil), y...)
					withTier(tier, func() { axpy(a, x, got) })
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("n %d trial %d a %v: y[%d] = %x, axpyGo %x", n, trial, a, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// spinWord sets bit k exactly for the +1 spins, at every block length.
func TestSpinWord(t *testing.T) {
	src := rng.New(8)
	for n := 0; n <= 64; n += 8 {
		for trial := 0; trial < 64; trial++ {
			s := ising.NewSpins(n)
			var want uint64
			for k := range s {
				if src.Bool(0.5) {
					s[k] = 1
					want |= 1 << k
				}
			}
			if got := spinWord(s); got != want {
				t.Fatalf("n %d: spinWord %#x, want %#x", n, got, want)
			}
		}
	}
}

// FuzzScalarSweepMatchesReference searches for a model, seed and β ramp
// on which a scalar machine's block walk leaves the per-spin loop: 1 to
// 200 spins of a palette model, two runs with biases reprogrammed between
// them, every kernel tier this CPU has.
func FuzzScalarSweepMatchesReference(f *testing.F) {
	f.Add(uint8(47), []byte{0, 9, 129, 17, 3, 18, 7, 1}, uint64(1), uint8(12), uint8(0), uint8(160), uint8(0))
	f.Add(uint8(64), []byte{5, 13, 2}, uint64(2), uint8(5), uint8(200), uint8(255), uint8(1))
	f.Add(uint8(199), []byte{1, 129, 16, 6, 12, 3, 15, 10, 4, 8, 17, 18}, uint64(3), uint8(3), uint8(1), uint8(40), uint8(2))
	f.Add(uint8(8), []byte{17, 18, 9}, uint64(4), uint8(9), uint8(30), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw uint8, couplings []byte, seed uint64, sweepRaw, beta0, beta1, mode uint8) {
		n := 1 + int(nRaw)%200
		model := paletteModel(n, couplings)
		sweeps := 1 + int(sweepRaw)%16
		start, end := float64(beta0)/32, float64(beta1)/16
		if mode&1 != 0 {
			start, end = start*1e4, end*1e4 // saturate
		}
		hsrc := rng.New(seed ^ 0x5eed)
		runs := scalarRuns{
			betas:  [][]float64{ramp(start, end, sweeps+1), ramp(end, start, sweeps+1)},
			biases: []vecmat.Vec{vecmat.Vec(randomFloats(hsrc, n, float64(1+mode>>1)))},
		}
		tiers := []string{"portable"}
		if hasAVX2 {
			tiers = append(tiers, "avx2")
		}
		if hasAVX512 {
			tiers = append(tiers, "avx512")
		}
		for _, tier := range tiers {
			checkScalarSweeps(t, tier, model, seed, runs)
		}
	})
}

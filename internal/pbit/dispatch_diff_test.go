package pbit

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ising-machines/saim/internal/cpufeat"
	"github.com/ising-machines/saim/internal/rng"
)

// Per-dispatcher differential pins: each packed kernel entry point must
// produce bit-identical results under every vector tier (AVX-512, AVX2)
// and the portable path, at every window width a machine can hold. The
// sweep-level tests exercise these through whole anneals; these hit each
// dispatcher in isolation with irregular shapes (odd lengths, sparse group
// sets and flip lists, every group or spin of the window) so a broken edge
// case cannot hide behind a forgiving trajectory. A tier this CPU lacks is
// skipped, and -v shows it.

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

// kernelWidths are the window widths the dispatchers are pinned at: every
// width a window can have (one octet, the uneven 3-window split's 24 and
// 16, the 2-window 32 and the single window's 64).
var kernelWidths = []int{8, 16, 24, 32, 64}

// randomFloats returns n draws in [-scale, scale).
func randomFloats(src *rng.Source, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = scale * src.Sym()
	}
	return out
}

func requireFieldsIdentical(t *testing.T, name string, native, portable []float64) {
	t.Helper()
	for i := range native {
		if math.Float64bits(native[i]) != math.Float64bits(portable[i]) {
			t.Fatalf("%s: field %d diverges: native %x portable %x",
				name, i, math.Float64bits(native[i]), math.Float64bits(portable[i]))
		}
	}
}

// runPair applies one kernel call to two copies of fields, under tier and
// under the portable path, and requires bit-identical results.
func runPair(t *testing.T, tier, name string, fields []float64, apply func(fields []float64)) {
	t.Helper()
	native := append([]float64(nil), fields...)
	withTier(tier, func() { apply(native) })
	portable := append([]float64(nil), fields...)
	withTier("portable", func() { apply(portable) })
	requireFieldsIdentical(t, name, native, portable)
}

// groupSets returns the active-group sets pinned at one width: one group
// (the hoisted path), a sparse set, and every group of the window (the
// unrolled path at width 64, the generic loop elsewhere).
func groupSets(width int) [][]int32 {
	g := int32(width / 4)
	all := make([]int32, g)
	for i := range all {
		all[i] = int32(i)
	}
	return [][]int32{{g - 1}, {0, g / 2, g - 1}, all}
}

// The CSR push kernels.
func TestFlipApplyDispatchersNativeMatchesPortable(t *testing.T) {
	vectorTiers(t, func(t *testing.T, tier string) {
		for _, width := range kernelWidths {
			for _, n := range []int{1, 4, 29, 64} {
				src := rng.New(uint64(n*width)*17 + 5)
				row := randomFloats(src, n, 1)
				fields := randomFloats(src, n*width, 1)
				var d [Lanes]float64
				copy(d[:], randomFloats(src, Lanes, 2))
				// Every third row entry becomes a stored CSR coupling.
				var cols []int32
				var ws []float64
				for j := 0; j < n; j += 3 {
					cols = append(cols, int32(j))
					ws = append(ws, row[j])
				}
				for _, groups := range groupSets(width) {
					runPair(t, tier, "flipApplyCSR", fields, func(f []float64) { flipApplyCSR(cols, ws, f, width, &d, groups) })
				}
				// The single-lane walk takes one lane's strided view; the last
				// lane of the window exercises an offset other than 0.
				last := width - 1
				runPair(t, tier, "flipApplySingleCSR", fields, func(f []float64) { flipApplySingleCSR(cols, ws, f[last:], width, -0.5) })
			}
		}
	})
}

// flipLists returns the flip lists pinned for n spins: empty, one entry
// (the last spin, and one in the middle), every third spin, every spin,
// and the odd spins — in a flush by pairs (j, j+1), j even, each of those
// is the flip j+1 that j's block takes alone before the pair's common
// tail, and {1} is that step with no tail.
func flipLists(n int) [][]int32 {
	var third, all, odd []int32
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			third = append(third, int32(i))
		}
		if i%2 == 1 {
			odd = append(odd, int32(i))
		}
		all = append(all, int32(i))
	}
	lists := [][]int32{nil, {int32(n - 1)}, {int32(n / 2)}, third, all, odd}
	if n > 1 {
		lists = append(lists, []int32{1})
	}
	return lists
}

// randomDeltas returns n δ lanes drawn from {+2, −2, 0}: the only values
// the sweep writes (deltaBlock), and the precondition under which the
// AVX-512 tier's fused multiply-add rounds as the separate multiply and
// add of the portable body (with every |J| ≤ fusedBound).
func randomDeltas(src *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = [...]float64{2, -2, 0}[src.Intn(3)]
	}
	return out
}

// The dense pull (one spin, or a pair j, j+1, per visit) and flush (one
// sweep's close) kernels, with the fused flag set and clear. Odd n leaves
// the flush a lone last row; the hand-off shape is the one-row pull of a
// list ending in j into j+1's block, the sweep's step after j flips.
func TestPullFlushDispatchersNativeMatchesPortable(t *testing.T) {
	vectorTiers(t, func(t *testing.T, tier string) {
		for _, width := range kernelWidths {
			for _, n := range []int{1, 2, 4, 7, 29, 64} {
				src := rng.New(uint64(n*width)*31 + 7)
				jdata := randomFloats(src, n*n, 1)
				deltas := randomDeltas(src, n*width)
				fields := randomFloats(src, n*width, 1)
				row := func(j int) []float64 { return jdata[j*n : (j+1)*n] }
				block := func(f []float64, j, blocks int) []float64 { return f[j*width : (j+blocks)*width] }
				for _, fused := range []bool{true, false} {
					for _, flips := range flipLists(n) {
						// Spin j = n−1 pulls from every listed spin; spin 0's
						// block is the first and so shares no line with an earlier.
						for _, j := range []int{0, n - 1} {
							runPair(t, tier, "pullDense", fields, func(f []float64) {
								pullDense(row(j), flips, deltas, block(f, j, 1), fused)
							})
						}
						for _, j := range []int{0, n - 2} {
							if n < 2 {
								break
							}
							runPair(t, tier, "pullDensePair", fields, func(f []float64) {
								pullDensePair(row(j), row(j+1), flips, deltas, block(f, j, 2), fused)
							})
						}
						runPair(t, tier, "flushDense", fields, func(f []float64) {
							flushDense(jdata, flips, deltas, f, width, fused)
						})
					}
					// The hand-off: the flips below j, then j, into j+1's block.
					for j := 0; j+1 < n; j += max(1, n/3) {
						var handoff []int32
						for i := 0; i < j; i += 3 {
							handoff = append(handoff, int32(i))
						}
						handoff = append(handoff, int32(j))
						runPair(t, tier, "pullDense hand-off", fields, func(f []float64) {
							pullDense(row(j+1), handoff, deltas, block(f, j+1, 1), fused)
						})
					}
				}
			}
		}
	})
}

// packedWant against independent wantSpin calls at every window width,
// across betas that reach both saturation rails (including the every-lane
// saturated shortcut, whose mask depends on the width) and at the
// decision's edges, under every tier.
func TestPackedWantMatchesWantSpin(t *testing.T) {
	check := func(t *testing.T, tier string) {
		src := rng.New(5)
		for _, width := range kernelWidths {
			f := make([]float64, width)
			nz := make([]float64, width)
			for trial := 0; trial < 200; trial++ {
				beta := float64(trial) * 0.05
				for k := range f {
					f[k] = src.Sym() * 8
					if trial%7 == 0 {
						f[k] *= 100 // force deep saturation
					}
					nz[k] = src.Sym()
				}
				if trial%5 == 1 {
					// Edges: p/q + noise exactly +0 (want +1), and β·f on
					// and just past either saturation rail.
					beta = 1
					for k := range f {
						f[k], nz[k] = [...]float64{0, 5.06, -5.06, math.Nextafter(5.06, 6), math.Nextafter(-5.06, -6), 0}[k%6], 0
					}
				}
				if trial%5 == 3 {
					// p/q + noise within an ulp of 0, where any other
					// rounding of p/q changes the decision.
					beta = 1
					for k := range f {
						r := padeRatio(f[k])
						nz[k] = [...]float64{-r, -math.Nextafter(r, math.Inf(1)), -math.Nextafter(r, math.Inf(-1))}[k%3]
					}
				}
				var want uint64
				for k := range f {
					if wantSpin(beta*f[k], nz[k]) == 1 {
						want |= 1 << k
					}
				}
				var got uint64
				withTier(tier, func() { got = packedWant(beta, f, nz) })
				if got != want {
					t.Fatalf("width %d trial %d %s: packedWant %#x want %#x", width, trial, tier, got, want)
				}
			}
		}
	}
	vectorTiers(t, check)
	t.Run("portable", func(t *testing.T) { check(t, "portable") })
}

// sweepCase is one dense window sweep's input: the window's J, noise,
// fields and state words at one width.
type sweepCase struct {
	name   string
	beta   float64
	jdata  []float64
	states []uint64
	noise  []float64
	fields []float64
	// nf is the list length the case is built to reach, or −1.
	nf int
}

// padeRatio is wantSpin's p/q, in its operation order.
func padeRatio(x float64) float64 {
	x2 := x * x
	p := x * (135135 + x2*(17325+x2*(378+x2)))
	q := 135135 + x2*(62370+x2*(3150+x2*28))
	return p / q
}

// sweepCases returns the sweeps pinned for n spins at one width: β small
// enough that every visit runs the Padé, a mixed β, and fields so large
// that every visit is saturated — there from random states, from states
// every lane keeps (an empty list) and from states every lane flips (a
// full list); and a sweep with J = 0, whose fields stay put, with each
// lane's noise set to −p/q or one ulp either side of it, so every
// unsaturated decision sits on the edge wantSpin's rounding decides.
func sweepCases(n, width int) []sweepCase {
	src := rng.New(uint64(n*width)*43 + 11)
	lanes := ^uint64(0) >> (Lanes - width)
	randomStates := func() []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = src.Uint64() & lanes
		}
		return s
	}
	jdata := randomFloats(src, n*n, 1)
	cases := []sweepCase{
		{"pade", 1e-3, jdata, randomStates(), randomFloats(src, n*width, 1), randomFloats(src, n*width, 1), -1},
		{"mixed", 1.5, jdata, randomStates(), randomFloats(src, n*width, 1), randomFloats(src, n*width, 6), -1},
	}
	// Saturated: |f| ≥ 1000 outlasts n ≤ 160 pulls of |J·δ| ≤ 2, so each
	// lane's decision is the sign of its starting field.
	sat := randomFloats(src, n*width, 1)
	keep := make([]uint64, n)
	for i := range keep {
		for k := 0; k < width; k++ {
			f := &sat[i*width+k]
			*f = math.Copysign(1000+math.Abs(*f), *f)
			if *f > 0 {
				keep[i] |= 1 << k
			}
		}
	}
	flip := make([]uint64, n)
	for i, s := range keep {
		flip[i] = ^s & lanes
	}
	cases = append(cases,
		sweepCase{"saturated", 1, jdata, randomStates(), randomFloats(src, n*width, 1), sat, -1},
		sweepCase{"saturated, empty list", 1, jdata, keep, randomFloats(src, n*width, 1), sat, 0},
		sweepCase{"saturated, full list", 1, jdata, flip, randomFloats(src, n*width, 1), sat, n},
	)
	edge := randomFloats(src, n*width, 4)
	nz := make([]float64, n*width)
	for i, f := range edge {
		r := padeRatio(f)
		nz[i] = [...]float64{-r, -math.Nextafter(r, math.Inf(1)), -math.Nextafter(r, math.Inf(-1))}[i%3]
	}
	return append(cases, sweepCase{"edge", 1, make([]float64, n*n), randomStates(), nz, edge, -1})
}

// The dense window sweep's dispatcher against the Go loop on the portable
// kernels: under the AVX-512 tier sweepDense runs the whole sweep in one
// kernel call, under AVX2 the Go loop on the AVX2 kernels. States, fields,
// the δ blocks written over the noise and the list must match bit for bit,
// at every width, for n from one spin (the odd last spin alone) to a
// qkp-dense window's 160.
func TestPackedSweepDenseDispatchMatchesGoLoop(t *testing.T) {
	type sweepOut struct {
		states        []uint64
		flips         []int32
		noise, fields []float64
	}
	run := func(tier string, c sweepCase, sweep func(float64, []float64, []uint64, []int32, []float64, []float64, bool) int) sweepOut {
		out := sweepOut{
			states: append([]uint64(nil), c.states...),
			flips:  make([]int32, len(c.states)),
			noise:  append([]float64(nil), c.noise...),
			fields: append([]float64(nil), c.fields...),
		}
		for i := range out.flips {
			out.flips[i] = -1 // no sweep may read past its list
		}
		var nf int
		withTier(tier, func() { nf = sweep(c.beta, c.jdata, out.states, out.flips, out.noise, out.fields, true) })
		out.flips = out.flips[:nf]
		return out
	}
	vectorTiers(t, func(t *testing.T, tier string) {
		for _, width := range kernelWidths {
			for _, n := range []int{1, 2, 3, 4, 29, 64, 160} {
				for _, c := range sweepCases(n, width) {
					name := fmt.Sprintf("width %d, n %d, %s", width, n, c.name)
					got := run(tier, c, sweepDense)
					want := run("portable", c, sweepDenseGo)
					if c.nf >= 0 && len(want.flips) != c.nf {
						t.Fatalf("%s: the case lists %d flips, built for %d", name, len(want.flips), c.nf)
					}
					if !slices.Equal(got.flips, want.flips) {
						t.Fatalf("%s: list %v, Go loop %v", name, got.flips, want.flips)
					}
					for i := range want.states {
						if got.states[i] != want.states[i] {
							t.Fatalf("%s: spin %d state %#x, Go loop %#x", name, i, got.states[i], want.states[i])
						}
					}
					requireFieldsIdentical(t, name+": fields", got.fields, want.fields)
					requireFieldsIdentical(t, name+": δ and noise blocks", got.noise, want.noise)
				}
			}
		}
	})
}

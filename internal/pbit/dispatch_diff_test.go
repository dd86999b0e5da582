package pbit

import (
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/cpufeat"
	"github.com/ising-machines/saim/internal/rng"
)

// Per-dispatcher differential pins: each packed kernel entry point must
// produce bit-identical results under the AVX2 and portable paths, at
// every window width a machine can hold. The sweep-level tests exercise
// these through whole anneals; these hit each dispatcher in isolation with
// irregular shapes (odd lengths, sparse group sets, every group of the
// window) so a broken edge case cannot hide behind a forgiving trajectory.
// On hardware without AVX2 both runs take the portable path and the
// comparison is vacuous, like the other differential tests.

// kernelWidths are the window widths the dispatchers are pinned at:
// one octet, the uneven 3-window split, and the widths with an unrolled
// every-group path (32 for the dense kernel, 64 for both).
var kernelWidths = []int{8, 16, 24, 32, 64}

// diffInputs builds one deterministic set of kernel operands: an
// n-element coupling row, matching CSR spans, a field block of the given
// width, and per-lane deltas.
func diffInputs(n, width int, seed uint64) (row []float64, cols []int32, ws []float64, fields []float64, d [Lanes]float64) {
	src := rng.New(seed)
	row = make([]float64, n)
	for j := range row {
		row[j] = src.Sym()
	}
	// Every third row entry becomes a stored CSR coupling.
	for j := 0; j < n; j += 3 {
		cols = append(cols, int32(j))
		ws = append(ws, row[j])
	}
	fields = make([]float64, n*width)
	for i := range fields {
		fields[i] = src.Sym()
	}
	for r := range d {
		d[r] = 2 * src.Sym()
	}
	return
}

// groupSets returns the active-group sets pinned at one width: one group
// (the hoisted path), a sparse set, and every group of the window (the
// unrolled path at width 64, and at 32 for the dense kernel; the generic
// loop elsewhere).
func groupSets(width int) [][]int32 {
	g := int32(width / 4)
	all := make([]int32, g)
	for i := range all {
		all[i] = int32(i)
	}
	return [][]int32{{g - 1}, {0, g / 2, g - 1}, all}
}

func cloneFields(fields []float64) []float64 {
	out := make([]float64, len(fields))
	copy(out, fields)
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

func TestFlipApplyDispatchersNativeMatchesPortable(t *testing.T) {
	saved := cpufeat.HasAVX2
	defer func() { cpufeat.HasAVX2 = saved }()

	for _, width := range kernelWidths {
		for _, n := range []int{1, 4, 29, 64} {
			row, cols, ws, fields, d := diffInputs(n, width, uint64(n*width)*17+5)

			runPair := func(name string, apply func(fields []float64)) {
				t.Helper()
				cpufeat.HasAVX2 = saved
				native := cloneFields(fields)
				apply(native)
				cpufeat.HasAVX2 = false
				portable := cloneFields(fields)
				apply(portable)
				requireFieldsIdentical(t, name, native, portable)
			}

			for _, groups := range groupSets(width) {
				runPair("flipApplyDense", func(f []float64) { flipApplyDense(row, f, width, &d, groups) })
				runPair("flipApplyCSR", func(f []float64) { flipApplyCSR(cols, ws, f, width, &d, groups) })
			}
			// The single-lane walks take one lane's strided view; the last
			// lane of the window exercises an offset other than 0.
			last := width - 1
			runPair("flipApplySingleDense", func(f []float64) { flipApplySingleDense(row, f[last:], width, 1.75) })
			runPair("flipApplySingleCSR", func(f []float64) { flipApplySingleCSR(cols, ws, f[last:], width, -0.5) })
		}
	}
}

// packedWant against independent wantSpin calls at every window width,
// across betas that reach both saturation rails (including the every-lane
// saturated shortcut, whose mask depends on the width) and both dispatch
// paths.
func TestPackedWantMatchesWantSpin(t *testing.T) {
	saved := cpufeat.HasAVX2
	defer func() { cpufeat.HasAVX2 = saved }()

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
			var want uint64
			for k := range f {
				if wantSpin(beta*f[k], nz[k]) == 1 {
					want |= 1 << k
				}
			}
			for _, native := range []bool{true, false} {
				cpufeat.HasAVX2 = native && saved
				if got := packedWant(beta, f, nz); got != want {
					t.Fatalf("width %d trial %d native=%v: packedWant %#x want %#x", width, trial, native, got, want)
				}
			}
		}
	}
}

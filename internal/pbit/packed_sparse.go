package pbit

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
)

// PackedSparseMachine is the CSR variant of PackedMachine: 64 replicas
// swept in lockstep over the flat three-array coupling layout of
// SparseMachine, in the same lane windows. Per lane it reproduces
// SparseMachine's trajectory bit-for-bit given the same source — which, by
// the existing golden tests, is also the dense machine's trajectory.
type PackedSparseMachine struct {
	packedCore
	rowPtr []int32
	colIdx []int32
	weight []float64
}

// NewPackedSparse builds a one-window packed CSR machine from the model's
// non-zero couplings, per-lane sources split off src in lane order.
func NewPackedSparse(model *ising.Model, src *rng.Source) *PackedSparseMachine {
	return NewPackedSparseWindows(model, src, 1)
}

// NewPackedSparseWindows is NewPackedSparse with the lanes split into
// `windows` lane windows (clamped to [1, 8]) that AnnealRun
// sweeps concurrently; Close the machine when done with it. The window
// count changes no lane's trajectory.
func NewPackedSparseWindows(model *ising.Model, src *rng.Source, windows int) *PackedSparseMachine {
	if err := model.Validate(); err != nil {
		panic(fmt.Sprintf("pbit: invalid model: %v", err))
	}
	rowPtr, colIdx, weight := buildCSR(model)
	m := &PackedSparseMachine{rowPtr: rowPtr, colIdx: colIdx, weight: weight}
	m.build(model.H, src, windows, m.sweepWindow, m.recomputeWindow)
	// Every lane starts at −1 with the model's h: build one lane in
	// recomputeWindow's CSR order and copy it.
	for i := 0; i < m.n; i++ {
		f := model.H[i]
		_, ws := m.row(i)
		for _, w := range ws {
			f += w * -1
		}
		m.setUniformField(i, f)
	}
	return m
}

// row returns the CSR column/weight spans of spin i.
func (m *PackedSparseMachine) row(i int) ([]int32, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.weight[lo:hi]
}

// recomputeWindow rebuilds one window's fields from scratch in the CSR
// entry order SparseMachine.RecomputeFields uses per lane.
func (m *PackedSparseMachine) recomputeWindow(win *window) {
	w := win.w
	win.spinFloats()
	for i := 0; i < m.n; i++ {
		acc := win.fields[i*w : (i+1)*w]
		copy(acc, win.hb[i*w:(i+1)*w])
		cols, ws := m.row(i)
		for k, j := range cols {
			wt := ws[k]
			sf := win.noise[int(j)*w : (int(j)+1)*w]
			for l := range acc {
				acc[l] += wt * sf[l]
			}
		}
	}
}

// sweepWindow runs one Monte-Carlo sweep of one window over the CSR rows.
//
//saim:hotpath
func (m *PackedSparseMachine) sweepWindow(win *window, beta float64) {
	w := win.w
	win.fillNoise()
	fields, noise := win.fields, win.noise
	for i, s := range win.states {
		base := i * w
		want := packedWant(beta, fields[base:base+w], noise[base:base+w])
		fl := want ^ s
		if fl == 0 {
			continue
		}
		win.states[i] = want
		cols, ws := m.row(i)
		if fl&(fl-1) == 0 {
			k := bits.TrailingZeros64(fl)
			delta := -2.0
			if want>>uint(k)&1 != 0 {
				delta = 2.0
			}
			flipApplySingleCSR(cols, ws, fields[k:], w, delta)
		} else {
			ng := buildDeltas(fl, want, &win.d, &win.groups)
			flipApplyCSR(cols, ws, fields, w, &win.d, win.groups[:ng])
		}
	}
}

// LaneFieldConsistencyError returns the worst drift between lane r's
// incremental fields and a from-scratch recomputation (test hook).
func (m *PackedSparseMachine) LaneFieldConsistencyError(r int) float64 {
	win, k := m.lane(r)
	worst := 0.0
	for i := 0; i < m.n; i++ {
		acc := win.hb[i*win.w+k]
		cols, ws := m.row(i)
		for e, j := range cols {
			acc += ws[e] * float64(int64(win.states[j]>>k&1)*2-1)
		}
		worst = max(worst, math.Abs(win.fields[i*win.w+k]-acc))
	}
	return worst
}

package pbit

import (
	"fmt"
	"math/bits"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// SparseMachine is a p-bit machine over a compressed-sparse-row (CSR) view
// of the coupling matrix instead of dense rows. Sparse Ising machines are
// the variant that scales to very large spin counts in hardware (Aadit et
// al., the paper's ref [10]); in software the sweep costs O(Σ degree)
// instead of O(N²), which wins whenever the coupling density is below the
// auto-selection threshold of internal/core.
//
// The CSR layout stores all non-zero couplings in three flat arrays:
// rowPtr (N+1 offsets), colIdx and weight (one entry per non-zero, row by
// row). Compared to per-spin adjacency slices this removes one pointer
// indirection per neighbor visit, keeps every row's neighbors contiguous in
// one allocation, and lets the flip kernel walk a single weight span — see
// DESIGN.md §5.2.
//
// Given the same Hamiltonian and seed, SparseMachine reproduces the dense
// Machine's trajectory bit-for-bit: both consume randomness in the same
// order and apply identical update rules (enforced by golden tests).
type SparseMachine struct {
	n        int
	rowPtr   []int32 // rowPtr[i]..rowPtr[i+1] spans spin i's entries
	colIdx   []int32
	weight   []float64
	h        vecmat.Vec
	constant float64
	state    ising.Spins
	field    vecmat.Vec
	noise    vecmat.Vec
	src      *rng.Source
	sweeps   int64
}

// buildCSR flattens the model's non-zero off-diagonal couplings into the
// three-array CSR form shared by SparseMachine and PackedSparseMachine.
func buildCSR(model *ising.Model) (rowPtr, colIdx []int32, weight []float64) {
	n := model.N()
	nnz := 0
	for i := 0; i < n; i++ {
		for j, w := range model.J.Row(i) {
			if w != 0 && j != i {
				nnz++
			}
		}
	}
	rowPtr = make([]int32, n+1)
	colIdx = make([]int32, 0, nnz)
	weight = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		for j, w := range model.J.Row(i) {
			if w != 0 && j != i {
				colIdx = append(colIdx, int32(j))
				weight = append(weight, w)
			}
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	return rowPtr, colIdx, weight
}

// NewSparse builds a CSR machine from the model's non-zero couplings.
// The model must satisfy Validate; NewSparse panics otherwise.
func NewSparse(model *ising.Model, src *rng.Source) *SparseMachine {
	if err := model.Validate(); err != nil {
		panic(fmt.Sprintf("pbit: invalid model: %v", err))
	}
	n := model.N()
	rowPtr, colIdx, weight := buildCSR(model)
	m := &SparseMachine{
		n:        n,
		rowPtr:   rowPtr,
		colIdx:   colIdx,
		weight:   weight,
		h:        model.H.Clone(),
		constant: model.Const,
		state:    ising.NewSpins(n),
		field:    vecmat.NewVec(n),
		noise:    vecmat.NewVec(n),
		src:      src,
	}
	m.RecomputeFields()
	return m
}

// N returns the number of p-bits.
func (m *SparseMachine) N() int { return m.n }

// State returns the live spin configuration.
func (m *SparseMachine) State() ising.Spins { return m.state }

// Sweeps returns the cumulative Monte-Carlo sweeps executed.
func (m *SparseMachine) Sweeps() int64 { return m.sweeps }

// Reseed replaces the machine's randomness source, allowing one long-lived
// machine to be reused across independent solves (see Machine.Reseed).
func (m *SparseMachine) Reseed(src *rng.Source) { m.src = src }

// Degree returns the number of non-zero couplings of spin i.
func (m *SparseMachine) Degree(i int) int { return int(m.rowPtr[i+1] - m.rowPtr[i]) }

// row returns the CSR column/weight spans of spin i.
func (m *SparseMachine) row(i int) ([]int32, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.weight[lo:hi]
}

// RecomputeFields rebuilds local fields from scratch.
//
//saim:hotpath
func (m *SparseMachine) RecomputeFields() {
	for i := 0; i < m.n; i++ {
		acc := m.h[i]
		cols, ws := m.row(i)
		for k, j := range cols {
			acc += ws[k] * float64(m.state[j])
		}
		m.field[i] = acc
	}
}

// Randomize draws a fresh uniform configuration.
func (m *SparseMachine) Randomize() {
	for i := range m.state {
		if m.src.Bool(0.5) {
			m.state[i] = 1
		} else {
			m.state[i] = -1
		}
	}
	m.RecomputeFields()
}

// SetState overwrites the configuration and recomputes local fields.
func (m *SparseMachine) SetState(s ising.Spins) {
	if len(s) != m.n {
		panic("pbit: SetState dimension mismatch")
	}
	copy(m.state, s)
	m.RecomputeFields()
}

// UpdateBiases replaces h and adjusts local fields in O(N).
func (m *SparseMachine) UpdateBiases(newH vecmat.Vec) {
	if len(newH) != m.n {
		panic("pbit: UpdateBiases dimension mismatch")
	}
	for i := range newH {
		m.field[i] += newH[i] - m.h[i]
		m.h[i] = newH[i]
	}
}

// flip flips spin i and propagates to its CSR neighbors only. The field
// invariant is the same as Machine.flip; here the walk touches exactly the
// Degree(i) stored couplings.
//
//saim:hotpath
func (m *SparseMachine) flip(i int) {
	old := m.state[i]
	m.state[i] = -old
	delta := float64(-2 * old)
	cols, ws := m.row(i)
	field := m.field
	for k, j := range cols {
		field[j] += ws[k] * delta
	}
}

// Sweep performs one sequential Monte-Carlo sweep (paper eq. 10), the
// block walk of Machine.Sweep. A CSR flip moves only its stored
// neighbours' fields, so flipping spin k walks k's row once: each
// neighbour's field takes the flip (flip's arithmetic, inline), and a
// neighbour that lies after k in the block is decided again, with
// wantSpin, from its new field. Every other decision of the block is kept
// (DESIGN.md §5.2).
//
//saim:hotpath
func (m *SparseMachine) Sweep(beta float64) {
	n := m.n
	if n == 0 {
		m.sweeps++
		return
	}
	noise := m.noise[:n]
	m.src.FillSym(noise)
	state := m.state[:n]
	field := m.field[:n]
	i := 0
	for i+8 <= n {
		w := min(sweepBlock, (n-i)&^7)
		want := packedWant(beta, field[i:i+w], noise[i:i+w])
		cur := spinWord(state[i : i+w])
		for diff := want ^ cur; diff != 0; {
			k := bits.TrailingZeros64(diff)
			old := state[i+k]
			state[i+k] = -old
			delta := float64(-2 * old)
			cur ^= 1 << k
			cols, ws := m.row(i + k)
			for e, j := range cols {
				field[j] += ws[e] * delta
				if d := int(j) - i; uint(d-k-1) < uint(w-k-1) {
					if wantSpin(beta*field[j], noise[j]) == 1 {
						want |= 1 << d
					} else {
						want &^= 1 << d
					}
				}
			}
			diff = (want ^ cur) & (^uint64(1) << k)
		}
		i += w
	}
	for ; i < n; i++ {
		if want := wantSpin(beta*field[i], noise[i]); want != state[i] {
			m.flip(i)
		}
	}
	m.sweeps++
}

// AnnealInto runs one annealing run from a fresh random state and writes
// the final configuration into the caller-owned dst (length N).
//
//saim:hotpath
func (m *SparseMachine) AnnealInto(dst ising.Spins, sched schedule.Schedule, sweeps int) {
	if len(dst) != m.n {
		panic("pbit: AnnealInto dimension mismatch")
	}
	m.Randomize()
	for t := 0; t < sweeps; t++ {
		m.Sweep(sched.Beta(t, sweeps))
	}
	copy(dst, m.state)
}

// AnnealFromInto continues annealing from the current state (no
// re-randomization), mirroring Machine.AnnealFromInto.
//
//saim:hotpath
func (m *SparseMachine) AnnealFromInto(dst ising.Spins, sched schedule.Schedule, sweeps int) {
	if len(dst) != m.n {
		panic("pbit: AnnealFromInto dimension mismatch")
	}
	for t := 0; t < sweeps; t++ {
		m.Sweep(sched.Beta(t, sweeps))
	}
	copy(dst, m.state)
}

// Energy returns the Hamiltonian energy of the current state.
func (m *SparseMachine) Energy() float64 {
	e := m.constant
	for i := 0; i < m.n; i++ {
		si := float64(m.state[i])
		cols, ws := m.row(i)
		acc := 0.0
		for k, j := range cols {
			if int(j) > i { // count each pair once
				acc += ws[k] * float64(m.state[j])
			}
		}
		e -= si * acc
		e -= m.h[i] * si
	}
	return e
}

// FieldConsistencyError returns the worst drift between incremental and
// recomputed local fields (test hook).
func (m *SparseMachine) FieldConsistencyError() float64 {
	worst := 0.0
	for i := 0; i < m.n; i++ {
		acc := m.h[i]
		cols, ws := m.row(i)
		for k, j := range cols {
			acc += ws[k] * float64(m.state[j])
		}
		d := m.field[i] - acc
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

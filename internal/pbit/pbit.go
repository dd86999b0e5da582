// Package pbit emulates a probabilistic-bit (p-bit) Ising machine in
// software, following Camsari et al. and the proof-of-concept used by the
// SAIM paper (Section III.B).
//
// A p-computer is a network of stochastic neurons m_i ∈ {-1,+1} that each
// receive the local field
//
//	I_i = Σ_j J_ij m_j + h_i                        (paper eq. 9)
//
// and update as
//
//	m_i = sign(tanh(β I_i) + U(-1,1))               (paper eq. 10)
//
// Sequentially sweeping all p-bits is exactly Gibbs sampling of the
// Boltzmann distribution P{m} ∝ exp(-β H{m}) (paper eq. 11): the flip
// probability implied by eq. 10 equals the Gibbs conditional.
//
// The Machine maintains the local-field vector I incrementally: flipping
// spin i adds 2·m_i·J_ji to every I_j, so one full sweep costs O(N·flips)
// row operations instead of O(N²) field recomputations.
//
// Two machines implement the same update rule: the dense Machine (flat J
// rows, unconditional flip propagation) and the CSR SparseMachine. Given
// the same Hamiltonian and seed they produce bit-identical trajectories
// (enforced by golden tests), so the density-based auto-selection in
// internal/core never changes results, only throughput. See DESIGN.md §5.
package pbit

import (
	"fmt"
	"math/bits"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// Machine is a software p-bit Ising machine bound to one Hamiltonian.
// It is not safe for concurrent use; run independent machines per goroutine.
type Machine struct {
	model *ising.Model
	// h is the machine's private copy of the bias vector. UpdateBiases
	// reprograms it without touching model.H, so machines sharing one
	// model (parallel tempering's replica ladder, concurrent engines)
	// never race on — or corrupt — each other's biases. J stays shared:
	// machines only read it.
	h     vecmat.Vec
	state ising.Spins
	field vecmat.Vec // I_i = Σ_j J_ij m_j + h_i, maintained incrementally
	noise vecmat.Vec // per-sweep noise buffer, batch-filled from src
	src   *rng.Source
	// sweeps counts Monte-Carlo sweeps for budget accounting.
	sweeps int64
}

// New returns a machine for the given model with all spins at -1.
// The model must satisfy Validate; New panics otherwise since a malformed
// Hamiltonian is a programming error, not a runtime condition.
func New(model *ising.Model, src *rng.Source) *Machine {
	if err := model.Validate(); err != nil {
		panic(fmt.Sprintf("pbit: invalid model: %v", err))
	}
	m := &Machine{
		model: model,
		h:     model.H.Clone(),
		state: ising.NewSpins(model.N()),
		field: vecmat.NewVec(model.N()),
		noise: vecmat.NewVec(model.N()),
		src:   src,
	}
	m.RecomputeFields()
	return m
}

// N returns the number of p-bits.
func (m *Machine) N() int { return m.model.N() }

// Model returns the Hamiltonian the machine samples from.
func (m *Machine) Model() *ising.Model { return m.model }

// State returns the current spin configuration. The returned slice is the
// machine's live state; callers that need a stable copy must Clone it.
func (m *Machine) State() ising.Spins { return m.state }

// Sweeps returns the number of Monte-Carlo sweeps executed so far.
func (m *Machine) Sweeps() int64 { return m.sweeps }

// Reseed replaces the machine's randomness source. It lets one long-lived
// machine be reused across independent solves (the replica pool reseeds
// before every replica so a pooled solve reproduces exactly the stream a
// freshly built machine would consume).
func (m *Machine) Reseed(src *rng.Source) { m.src = src }

// SetState overwrites the configuration and recomputes local fields.
func (m *Machine) SetState(s ising.Spins) {
	if len(s) != m.N() {
		panic("pbit: SetState dimension mismatch")
	}
	copy(m.state, s)
	m.RecomputeFields()
}

// Randomize draws an independent uniform configuration, as at the start of
// an annealing run.
func (m *Machine) Randomize() {
	for i := range m.state {
		if m.src.Bool(0.5) {
			m.state[i] = 1
		} else {
			m.state[i] = -1
		}
	}
	m.RecomputeFields()
}

// RecomputeFields rebuilds the local-field vector from scratch (O(N²)).
// It is called after bulk state or bias changes; the sweep path maintains
// fields incrementally.
func (m *Machine) RecomputeFields() {
	n := m.N()
	for i := 0; i < n; i++ {
		m.field[i] = m.localField(i)
	}
}

// localField is ising.Model.LocalField over the machine's private biases —
// the accumulation order matches exactly, so privatizing h changed no
// trajectory (the golden tests pin this).
func (m *Machine) localField(i int) float64 {
	row := m.model.J.Row(i)
	acc := m.h[i]
	for j, v := range row {
		acc += v * float64(m.state[j])
	}
	return acc
}

// UpdateBiases replaces the machine's bias vector h with newH and adjusts
// the local fields incrementally in O(N). This is the "weight update" step
// of SAIM: because constraints are linear in x, a Lagrange-multiplier
// update only changes h (and the energy constant), never J. The update is
// copy-on-write: it reprograms the machine's private h, never the shared
// model, so replica ladders built over one model stay race-free.
func (m *Machine) UpdateBiases(newH vecmat.Vec) {
	if len(newH) != m.N() {
		panic("pbit: UpdateBiases dimension mismatch")
	}
	for i := range newH {
		m.field[i] += newH[i] - m.h[i]
		m.h[i] = newH[i]
	}
}

// flip flips spin i and propagates the field change to all neighbors.
//
// Invariant: on entry field[j] == Σ_k J_jk·state[k] + h[j] for every j;
// flipping state[i] changes each field[j] by J_ji·(new−old) = −2·old·J_ji,
// so adding w·delta row-wise restores the invariant without recomputation.
// The row is added unconditionally — adding w·delta for a zero weight
// changes no decision — by axpy, whose vector bodies round each
// product and sum on their own, as gc's scalar MULSD/ADDSD loop does (gc
// never vectorizes that loop; see DESIGN.md §5.1).
//
//saim:hotpath
func (m *Machine) flip(i int) {
	old := m.state[i]
	m.state[i] = -old
	axpy(float64(-2*old), m.model.J.Row(i), m.field) // new - old ∈ {-2, +2}
}

// tanhApprox evaluates tanh via a clamped rational approximation. The p-bit
// activation only needs ~1e-4 absolute accuracy (its output is compared
// against uniform noise of amplitude 1), and this is measurably faster than
// math.Tanh in the sweep inner loop. The clamp at ±5.06 is where the Padé
// error crosses the saturation error; maximum absolute error is ~1.1e-4.
//
//saim:hotpath
func tanhApprox(x float64) float64 {
	if x > 5.06 {
		return 1
	}
	if x < -5.06 {
		return -1
	}
	x2 := x * x
	// Padé-type approximant of tanh, accurate on [-5, 5].
	p := x * (135135 + x2*(17325+x2*(378+x2)))
	q := 135135 + x2*(62370+x2*(3150+x2*28))
	return p / q
}

// wantSpin applies the p-bit update rule m' = sign(tanh(β·I) + noise) to
// one β-scaled local field x. Saturated inputs (|x| beyond the tanhApprox
// clamp) decide without evaluating the Padé polynomial: noise ∈ [-1, 1),
// so at act = 1 the sum 1+noise ≥ 0 always (ties resolve to +1, matching
// the reference rule at noise = -1 exactly), and at act = -1 the sum
// noise−1 < 0 always. The Padé arithmetic is identical to tanhApprox, so
// both sweep kernels calling this one helper stay trajectory-identical to
// each other and to the reference rule. Kept tiny so it inlines into the
// sweep loops.
//
//saim:hotpath
func wantSpin(x, noise float64) int8 {
	if x > 5.06 {
		return 1
	}
	if x < -5.06 {
		return -1
	}
	x2 := x * x
	p := x * (135135 + x2*(17325+x2*(378+x2)))
	q := 135135 + x2*(62370+x2*(3150+x2*28))
	if p/q+noise >= 0 {
		return 1
	}
	return -1
}

// sweepBlock is the scalar sweeps' block width, in spins: each block's
// decisions come from one packedWant call. A dense flip moves every later
// field, so it re-decides the rest of its block, and a CSR flip re-decides
// its stored neighbours left in the block; wider blocks save calls where
// flips are rare but redo more after each flip. 16 was the fastest width
// of 8, 16, 32 and 64 on both serve job shapes (DESIGN.md §5.1, §5.2).
const sweepBlock = 16

// spinWord packs a block of spins, a whole number of octets and at most
// 64, into a word: bit k is set iff s[k] = +1, packedWant's bit order.
// Each octet is read as one little-endian word (gc combines the eight
// byte loads into one), whose bytes are 0x01 for +1 and 0xff for −1; the
// multiply gathers the eight inverted sign bits into its top byte, every
// partial product at a distinct bit, so nothing carries.
//
//saim:hotpath
func spinWord(s ising.Spins) uint64 {
	var w uint64
	for o := 0; o+8 <= len(s); o += 8 {
		b := s[o : o+8 : o+8]
		x := uint64(uint8(b[0])) | uint64(uint8(b[1]))<<8 | uint64(uint8(b[2]))<<16 | uint64(uint8(b[3]))<<24 |
			uint64(uint8(b[4]))<<32 | uint64(uint8(b[5]))<<40 | uint64(uint8(b[6]))<<48 | uint64(uint8(b[7]))<<56
		w |= (^x & 0x8080808080808080 >> 7) * 0x0102040810204080 >> 56 << o
	}
	return w
}

// Sweep performs one Monte-Carlo sweep (MCS): a sequential pass updating
// every p-bit once with inverse temperature beta, per paper eq. 10.
//
// The per-spin noise is pre-drawn in one batch (same stream order as
// drawing inside the loop, so trajectories are unchanged). The spins are
// then decided a block of up to sweepBlock at a time, a whole number of
// octets: one packedWant call gives the block's wantSpin decisions, and its
// spins flip in visit order, the lowest one whose decision differs from
// its state first. A flip moves every later field, so the block's lanes
// after it are decided again (from the octet holding the next spin) before
// the next one is read. A decision is thus only ever used while the field
// it was made from is the spin's field at its visit, which makes the walk
// the per-spin loop's trajectory bit for bit (DESIGN.md §5.1). The last
// n mod 8 spins run the per-spin loop itself.
//
//saim:hotpath
func (m *Machine) Sweep(beta float64) {
	n := len(m.state)
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
		f, nz := field[i:i+w], noise[i:i+w]
		cur := spinWord(state[i : i+w])
		for diff := packedWant(beta, f, nz) ^ cur; diff != 0; {
			k := bits.TrailingZeros64(diff)
			m.flip(i + k)
			cur ^= 1 << k
			o := (k + 1) &^ 7
			if o == w {
				break
			}
			diff = (packedWant(beta, f[o:], nz[o:])<<o ^ cur) & (^uint64(1) << k)
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

// AnnealInto runs `sweeps` Monte-Carlo sweeps with β following sched,
// starting from a fresh random configuration, and writes the final state
// (the paper reads the last sample of each run) into the caller-owned dst
// (length N). It is the zero-allocation run primitive of the solve engine.
//
//saim:hotpath
func (m *Machine) AnnealInto(dst ising.Spins, sched schedule.Schedule, sweeps int) {
	if len(dst) != m.N() {
		panic("pbit: AnnealInto dimension mismatch")
	}
	m.Randomize()
	for t := 0; t < sweeps; t++ {
		m.Sweep(sched.Beta(t, sweeps))
	}
	copy(dst, m.state)
}

// Energy returns the Hamiltonian energy of the current state under the
// machine's (possibly reprogrammed) private biases.
func (m *Machine) Energy() float64 {
	n := m.N()
	e := m.model.Const
	for i := 0; i < n; i++ {
		row := m.model.J.Row(i)
		si := float64(m.state[i])
		acc := 0.0
		for j := i + 1; j < n; j++ {
			acc += row[j] * float64(m.state[j])
		}
		e -= si * acc
		e -= m.h[i] * si
	}
	return e
}

// FieldConsistencyError returns the largest absolute difference between the
// incrementally-maintained fields and a from-scratch recomputation. Tests
// use it to verify the incremental update path.
func (m *Machine) FieldConsistencyError() float64 {
	worst := 0.0
	for i := 0; i < m.N(); i++ {
		d := m.field[i] - m.localField(i)
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

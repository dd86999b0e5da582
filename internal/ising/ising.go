// Package ising defines the two energy models the library is built on:
//
//   - Model: the spin-domain Ising Hamiltonian H(m) = -Σ_{i<j} J_ij m_i m_j
//   - Σ_i h_i m_i + C with m_i ∈ {-1,+1} (paper eq. 1, plus a constant
//     offset so that converted problems keep their absolute energies);
//   - QUBO: the binary-domain quadratic form E(x) = xᵀQx + cᵀx + C with
//     x_i ∈ {0,1} and Q symmetric with zero diagonal (diagonal terms are
//     folded into c because x_i² = x_i).
//
// Constrained problems are assembled as QUBOs (objective + penalty +
// Lagrange terms) and converted once to an Ising Model for the p-bit
// machine. Both models expose full-energy and delta-energy oracles; the
// delta oracles are what make sweeps O(N) per flip.
package ising

import (
	"fmt"
	"math"

	"github.com/ising-machines/saim/internal/vecmat"
)

// Spins is a spin configuration with values in {-1, +1}, stored as int8 for
// cache density.
type Spins []int8

// Bits is a binary configuration with values in {0, 1}.
type Bits []int8

// NewSpins returns an all-(-1) configuration of length n (binary all-zero).
func NewSpins(n int) Spins {
	s := make(Spins, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Clone returns a copy of s.
func (s Spins) Clone() Spins {
	out := make(Spins, len(s))
	copy(out, s)
	return out
}

// Bits converts spins to binary variables via x = (m+1)/2.
func (s Spins) Bits() Bits {
	out := make(Bits, len(s))
	s.BitsInto(out)
	return out
}

// BitsInto writes the binary image of s into the caller-owned dst, the
// allocation-free form of Bits. It panics on length mismatch.
//
//saim:hotpath
func (s Spins) BitsInto(dst Bits) {
	if len(dst) != len(s) {
		panic("ising: BitsInto dimension mismatch")
	}
	for i, m := range s {
		if m > 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// Spins converts binary variables to spins via m = 2x-1.
func (b Bits) Spins() Spins {
	out := make(Spins, len(b))
	for i, x := range b {
		if x > 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// Clone returns a copy of b.
func (b Bits) Clone() Bits {
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// Float returns b as a float64 vector.
func (b Bits) Float() vecmat.Vec {
	out := vecmat.NewVec(len(b))
	for i, x := range b {
		out[i] = float64(x)
	}
	return out
}

// Validate reports an error if any entry of s is not ±1.
func (s Spins) Validate() error {
	for i, m := range s {
		if m != 1 && m != -1 {
			return fmt.Errorf("ising: spin %d has invalid value %d", i, m)
		}
	}
	return nil
}

// Validate reports an error if any entry of b is not 0 or 1.
func (b Bits) Validate() error {
	for i, x := range b {
		if x != 0 && x != 1 {
			return fmt.Errorf("ising: bit %d has invalid value %d", i, x)
		}
	}
	return nil
}

// Model is the spin-domain Ising Hamiltonian
//
//	H(m) = -Σ_{i<j} J_ij m_i m_j - Σ_i h_i m_i + Const.
//
// J is symmetric with zero diagonal. The constant carries offsets produced
// by QUBO→Ising conversion so that H equals the original QUBO energy.
type Model struct {
	J     *vecmat.Sym
	H     vecmat.Vec
	Const float64
}

// NewModel returns a zero Hamiltonian over n spins.
func NewModel(n int) *Model {
	return &Model{J: vecmat.NewSym(n), H: vecmat.NewVec(n)}
}

// N returns the number of spins.
func (m *Model) N() int { return m.J.N() }

// Validate checks structural invariants: dimensions agree, J symmetric with
// zero diagonal, all coefficients finite.
func (m *Model) Validate() error {
	n := m.J.N()
	if len(m.H) != n {
		return fmt.Errorf("ising: J order %d but h length %d", n, len(m.H))
	}
	if !m.J.IsSymmetric() {
		return fmt.Errorf("ising: J not symmetric")
	}
	for i := 0; i < n; i++ {
		if m.J.At(i, i) != 0 {
			return fmt.Errorf("ising: J diagonal %d non-zero", i)
		}
		if math.IsNaN(m.H[i]) || math.IsInf(m.H[i], 0) {
			return fmt.Errorf("ising: h[%d] not finite", i)
		}
		for j := 0; j < n; j++ {
			v := m.J.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ising: J[%d,%d] not finite", i, j)
			}
		}
	}
	if math.IsNaN(m.Const) || math.IsInf(m.Const, 0) {
		return fmt.Errorf("ising: constant not finite")
	}
	return nil
}

// Energy returns H(m) for the given configuration.
//
//saim:hotpath
func (m *Model) Energy(s Spins) float64 {
	n := m.N()
	if len(s) != n {
		panic("ising: Energy dimension mismatch")
	}
	e := m.Const
	for i := 0; i < n; i++ {
		row := m.J.Row(i)
		si := float64(s[i])
		acc := 0.0
		for j := i + 1; j < n; j++ {
			acc += row[j] * float64(s[j])
		}
		e -= si * acc
		e -= m.H[i] * si
	}
	return e
}

// LocalField returns I_i = Σ_j J_ij m_j + h_i, the input of p-bit i
// (paper eq. 9).
//
//saim:hotpath
func (m *Model) LocalField(s Spins, i int) float64 {
	row := m.J.Row(i)
	acc := m.H[i]
	for j, v := range row {
		acc += v * float64(s[j])
	}
	return acc
}

// DeltaFlip returns H(m with spin i flipped) − H(m) = 2·m_i·I_i where I_i is
// the local field. Flipping when DeltaFlip < 0 lowers the energy.
//
//saim:hotpath
func (m *Model) DeltaFlip(s Spins, i int) float64 {
	return 2 * float64(s[i]) * m.LocalField(s, i)
}

// Density returns the fraction of non-zero couplings among the N(N-1)/2
// possible pairs; this is the d used in the paper's P = α·d·N heuristic.
func (m *Model) Density() float64 { return m.J.OffDiagDensity() }

// QUBO is the binary-domain quadratic model
//
//	E(x) = Σ_{i<j} 2·Q_ij x_i x_j + Σ_i c_i x_i + Const
//	     = xᵀQx + cᵀx + Const     (Q symmetric, zero diagonal)
//
// using x_i ∈ {0,1}. Diagonal quadratic coefficients must be folded into c
// (AddQuad does this automatically).
type QUBO struct {
	Q     *vecmat.Sym
	C     vecmat.Vec
	Const float64
}

// NewQUBO returns a zero QUBO over n binary variables.
func NewQUBO(n int) *QUBO {
	return &QUBO{Q: vecmat.NewSym(n), C: vecmat.NewVec(n)}
}

// N returns the number of binary variables.
func (q *QUBO) N() int { return q.Q.N() }

// AddQuad accumulates the term w·x_i·x_j onto the model. For i == j the term
// is linear (x_i² = x_i) and lands in C. For i ≠ j the weight is split
// symmetrically so that xᵀQx sums to w·x_i·x_j.
func (q *QUBO) AddQuad(i, j int, w float64) {
	if i == j {
		q.C[i] += w
		return
	}
	q.Q.Add(i, j, w/2)
}

// AddLinear accumulates w·x_i.
func (q *QUBO) AddLinear(i int, w float64) { q.C[i] += w }

// AddConst accumulates a constant offset.
func (q *QUBO) AddConst(w float64) { q.Const += w }

// Energy returns E(x).
func (q *QUBO) Energy(x Bits) float64 {
	n := q.N()
	if len(x) != n {
		panic("ising: QUBO Energy dimension mismatch")
	}
	e := q.Const
	for i := 0; i < n; i++ {
		if x[i] == 0 {
			continue
		}
		row := q.Q.Row(i)
		acc := q.C[i]
		for j := i + 1; j < n; j++ {
			if x[j] != 0 {
				acc += 2 * row[j]
			}
		}
		e += acc
	}
	return e
}

// DeltaFlip returns E(x with bit i toggled) − E(x).
func (q *QUBO) DeltaFlip(x Bits, i int) float64 {
	row := q.Q.Row(i)
	acc := q.C[i]
	for j, v := range row {
		if x[j] != 0 && j != i {
			acc += 2 * v
		}
	}
	if x[i] == 0 {
		return acc
	}
	return -acc
}

// Validate checks structural invariants of the QUBO.
func (q *QUBO) Validate() error {
	n := q.Q.N()
	if len(q.C) != n {
		return fmt.Errorf("ising: Q order %d but c length %d", n, len(q.C))
	}
	if !q.Q.IsSymmetric() {
		return fmt.Errorf("ising: Q not symmetric")
	}
	for i := 0; i < n; i++ {
		if q.Q.At(i, i) != 0 {
			return fmt.Errorf("ising: Q diagonal %d non-zero", i)
		}
	}
	return nil
}

// ToIsing converts the QUBO to an equivalent spin model via x = (1+m)/2 so
// that for every configuration Model.Energy(x.Spins()) == QUBO.Energy(x).
//
// Derivation: substituting x_i = (1+m_i)/2 into E gives, for each pair term
// 2Q_ij x_i x_j, a coupling J_ij = -Q_ij/2, field contributions Q_ij/2 to
// both h_i-sides, and constants; each linear term c_i x_i contributes
// h_i -= c_i/2 ... with the sign convention of H (note the minus signs in H).
func (q *QUBO) ToIsing() *Model {
	n := q.N()
	m := NewModel(n)
	m.Const = q.Const
	for i := 0; i < n; i++ {
		// Linear: c_i (1+m_i)/2 = c_i/2 + (c_i/2) m_i  ⇒ h_i -= c_i/2.
		m.H[i] -= q.C[i] / 2
		m.Const += q.C[i] / 2
		row := q.Q.Row(i)
		for j := i + 1; j < n; j++ {
			w := 2 * row[j] // full pair weight w·x_i·x_j
			if w == 0 {
				continue
			}
			// w x_i x_j = w/4 (1 + m_i + m_j + m_i m_j)
			m.J.Add(i, j, -w/4)
			m.H[i] -= w / 4
			m.H[j] -= w / 4
			m.Const += w / 4
		}
	}
	return m
}

// Normalize rescales the model in place so that max(|Q|, |c|) == 1 (the
// paper normalizes W and h this way to reuse one β-schedule across
// instances). The constant is scaled by the same factor. It returns the
// scale factor applied (1 for an all-zero model). Energies scale linearly,
// so argmins are unchanged.
func (q *QUBO) Normalize() float64 {
	m := math.Max(q.Q.MaxAbs(), q.C.MaxAbs())
	if m == 0 {
		return 1
	}
	inv := 1 / m
	q.Q.Scale(inv)
	q.C.Scale(inv)
	q.Const *= inv
	return inv
}

// Clone returns a deep copy of q.
func (q *QUBO) Clone() *QUBO {
	return &QUBO{Q: q.Q.Clone(), C: q.C.Clone(), Const: q.Const}
}

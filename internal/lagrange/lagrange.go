// Package lagrange provides the Lagrange-relaxation machinery that turns a
// penalty-method energy E into the SAIM Lagrange function
//
//	L(x) = E(x) + λᵀ g(x)                     (paper eq. 5)
//
// together with the (surrogate) subgradient ascent on the dual problem
// max_λ min_x L (paper eqs. 7–8): after each Ising-machine measurement x̄
// the multipliers move along the constraint residuals,
//
//	λ ← λ + η · g(x̄).
//
// Because g is linear in x, applying λ to a QUBO touches only linear
// coefficients and the constant — this is what lets SAIM re-program an
// Ising machine's biases in O(N·M) per iteration without rebuilding J.
package lagrange

import (
	"fmt"
	"math"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/vecmat"
)

// Multipliers holds the Lagrange multiplier vector λ and its update policy.
type Multipliers struct {
	// Values is λ, one entry per constraint.
	Values vecmat.Vec
	// Eta is the subgradient step size η (paper Table I: 20 for QKP,
	// 0.05 for MKP).
	Eta float64
	// NonNegative, when set, projects λ onto λ ≥ 0 after each update.
	// Constraints derived from inequalities have sign-constrained optimal
	// multipliers; the paper's plain ascent works without projection, so
	// this is off by default and exercised in ablations.
	NonNegative bool
	// steps counts updates, for diagnostics and traces.
	steps int
}

// New returns zero-initialized multipliers (paper: λ₀ = 0) for m constraints.
func New(m int, eta float64) *Multipliers {
	if m < 0 {
		panic("lagrange: negative constraint count")
	}
	return &Multipliers{Values: vecmat.NewVec(m), Eta: eta}
}

// M returns the number of multipliers.
func (l *Multipliers) M() int { return len(l.Values) }

// Reset returns the multipliers to λ = 0 with a zero step count, so one
// allocation can serve many solves (the replica pool resets between
// replicas instead of rebuilding).
func (l *Multipliers) Reset() {
	for i := range l.Values {
		l.Values[i] = 0
	}
	l.steps = 0
}

// Steps returns how many updates have been applied.
func (l *Multipliers) Steps() int { return l.steps }

// Update performs one subgradient step λ ← λ + η·g for the measured
// residual vector g = g(x̄). This implements the surrogate gradient method
// [20]: x̄ may be any (even non-optimal) sample from the Ising machine.
func (l *Multipliers) Update(g vecmat.Vec) {
	if len(g) != len(l.Values) {
		panic(fmt.Sprintf("lagrange: residual length %d, want %d", len(g), len(l.Values)))
	}
	for i, gi := range g {
		l.Values[i] += l.Eta * gi
		if l.NonNegative && l.Values[i] < 0 {
			l.Values[i] = 0
		}
	}
	l.steps++
}

// Clone returns a deep copy.
func (l *Multipliers) Clone() *Multipliers {
	return &Multipliers{Values: l.Values.Clone(), Eta: l.Eta, NonNegative: l.NonNegative, steps: l.steps}
}

// Apply returns L = base + λᵀ(A·x − B) as a new QUBO. base is typically the
// penalty energy E built by package penalty.
func Apply(base *ising.QUBO, ext *constraint.Extended, l *Multipliers) *ising.QUBO {
	if base.N() != ext.NTotal {
		panic("lagrange: base QUBO dimension mismatch")
	}
	if l.M() != ext.M() {
		panic("lagrange: multiplier count mismatch")
	}
	out := base.Clone()
	for m, row := range ext.Rows {
		lam := l.Values[m]
		if lam == 0 {
			continue
		}
		for i, ai := range row {
			if ai != 0 {
				out.AddLinear(i, lam*ai)
			}
		}
		out.AddConst(-lam * ext.B[m])
	}
	return out
}

// BiasDelta computes, without allocating a new model, the spin-domain field
// adjustment produced by the λ terms: for every binary linear term c_i x_i
// the Ising conversion contributes h_i −= c_i/2. dst must have length
// ext.NTotal; it is overwritten with Σ_m λ_m·row_m[i]/2 (to be *subtracted*
// from the base h), and the returned value is the constant-energy shift
// Σ_m λ_m(Σ_i row_m[i]/2 − b_m).
func BiasDelta(dst vecmat.Vec, ext *constraint.Extended, l *Multipliers) float64 {
	if len(dst) != ext.NTotal {
		panic("lagrange: BiasDelta dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	shift := 0.0
	for m, row := range ext.Rows {
		lam := l.Values[m]
		if lam == 0 {
			continue
		}
		for i, ai := range row {
			if ai != 0 {
				dst[i] += lam * ai / 2
				shift += lam * ai / 2
			}
		}
		shift -= lam * ext.B[m]
	}
	return shift
}

// StepSchedule maps the update index k (0-based) to a step size η_k.
// Classical subgradient theory converges for diminishing, non-summable
// steps (e.g. η_k = η₀/√(k+1)); the paper uses a constant η, which works
// with the surrogate-gradient method but leaves a residual oscillation.
type StepSchedule interface {
	Eta(k int) float64
}

// ConstantStep is the paper's fixed η.
type ConstantStep struct {
	Eta0 float64
}

// Eta implements StepSchedule.
func (c ConstantStep) Eta(int) float64 { return c.Eta0 }

// DecayStep is η_k = η₀ / (k+1)^Power. Power 0.5 is the classical
// 1/√k diminishing schedule; Power 1 is the series-summable variant.
type DecayStep struct {
	Eta0  float64
	Power float64
}

// Eta implements StepSchedule.
func (d DecayStep) Eta(k int) float64 {
	return d.Eta0 / powKPlus1(k, d.Power)
}

func powKPlus1(k int, p float64) float64 {
	switch p {
	case 0:
		return 1
	case 0.5:
		return math.Sqrt(float64(k + 1))
	case 1:
		return float64(k + 1)
	default:
		return math.Pow(float64(k+1), p)
	}
}

// UpdateScheduled performs λ ← λ + η_k·g with the step taken from the
// schedule at the current step counter. Projection behaves as in Update.
func (l *Multipliers) UpdateScheduled(g vecmat.Vec, sched StepSchedule) {
	if len(g) != len(l.Values) {
		panic(fmt.Sprintf("lagrange: residual length %d, want %d", len(g), len(l.Values)))
	}
	eta := sched.Eta(l.steps)
	for i, gi := range g {
		l.Values[i] += eta * gi
		if l.NonNegative && l.Values[i] < 0 {
			l.Values[i] = 0
		}
	}
	l.steps++
}

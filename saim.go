package saim

import (
	"fmt"
	"math"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/vecmat"
)

// Builder assembles a binary optimization problem
//
//	min  Σ_i c_i x_i + Σ_{i<j} q_ij x_i x_j + Σ higher-order terms
//	s.t. linear constraints (≤, =, or ≥) and/or polynomial equalities,
//	     x ∈ {0,1}^n.
//
// Coefficients are given in natural (un-normalized) units; Model normalizes
// internally exactly as the paper prescribes. One builder produces a Model
// of any form: unconstrained (no constraints), linearly constrained (the
// SAIM form), or high-order polynomial (any Term of degree ≥ 3 or any
// ConstrainPolyEQ).
type Builder struct {
	n       int
	obj     *ising.QUBO
	sys     *constraint.System
	hterms  []Monomial
	pcons   [][]Monomial
	density float64
	errs    []error
}

// Density records the instance coupling density d used by the P = α·d·N
// penalty heuristic (e.g. the pair-value density for QKP, 2/(N+1) for
// MKP). When unset, solvers measure the density of the built penalty
// energy instead — which for knapsack-like constraints is close to 1 and
// therefore prices P well above the paper's d-aware heuristic.
func (b *Builder) Density(d float64) *Builder {
	if d < 0 || d > 1 {
		b.errs = append(b.errs, fmt.Errorf("saim: density %v outside [0,1]", d))
		return b
	}
	b.density = d
	return b
}

// NewBuilder returns a builder over n binary decision variables.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		return &Builder{errs: []error{fmt.Errorf("saim: NewBuilder requires n > 0, got %d", n)}}
	}
	return &Builder{n: n, obj: ising.NewQUBO(n), sys: constraint.NewSystem(n)}
}

func (b *Builder) check(i int) bool {
	if i < 0 || i >= b.n {
		b.errs = append(b.errs, fmt.Errorf("saim: variable index %d out of range [0,%d)", i, b.n))
		return false
	}
	return true
}

// Linear adds w·x_i to the minimization objective. It returns the builder
// for chaining.
func (b *Builder) Linear(i int, w float64) *Builder {
	if b.check(i) {
		b.obj.AddLinear(i, w)
	}
	return b
}

// Quadratic adds w·x_i·x_j (i ≠ j) to the minimization objective.
func (b *Builder) Quadratic(i, j int, w float64) *Builder {
	if !b.check(i) || !b.check(j) {
		return b
	}
	if i == j {
		b.errs = append(b.errs, fmt.Errorf("saim: Quadratic requires i != j (got %d)", i))
		return b
	}
	b.obj.AddQuad(i, j, w)
	return b
}

// ConstrainLE adds Σ coeffs_i·x_i ≤ bound. Coefficients and bound must be
// non-negative (knapsack form), because slack variables are binary-encoded
// against the bound.
func (b *Builder) ConstrainLE(coeffs []float64, bound float64) *Builder {
	return b.constrain(coeffs, constraint.LE, bound)
}

// ConstrainEQ adds Σ coeffs_i·x_i = bound.
func (b *Builder) ConstrainEQ(coeffs []float64, bound float64) *Builder {
	return b.constrain(coeffs, constraint.EQ, bound)
}

// ConstrainGE adds Σ coeffs_i·x_i ≥ bound. Coefficients and bound must be
// non-negative, and the bound must not exceed the coefficient sum (the
// constraint would be unsatisfiable over binary x). The constraint is
// lowered by negation: the surplus Σ coeffs_i·x_i − bound is binary-encoded
// like an LE slack and enters the equality system with negated coefficients.
func (b *Builder) ConstrainGE(coeffs []float64, bound float64) *Builder {
	return b.constrain(coeffs, constraint.GE, bound)
}

func (b *Builder) constrain(coeffs []float64, sense constraint.Sense, bound float64) *Builder {
	if len(coeffs) != b.n {
		b.errs = append(b.errs, fmt.Errorf("saim: constraint over %d coefficients, want %d", len(coeffs), b.n))
		return b
	}
	if bound < 0 {
		b.errs = append(b.errs, fmt.Errorf("saim: negative constraint bound %v", bound))
		return b
	}
	if sense == constraint.LE || sense == constraint.GE {
		sum := 0.0
		for i, c := range coeffs {
			if c < 0 {
				b.errs = append(b.errs, fmt.Errorf("saim: negative coefficient %v at %d in %v constraint", c, i, sense))
				return b
			}
			sum += c
		}
		if sense == constraint.GE && bound > sum {
			b.errs = append(b.errs, fmt.Errorf("saim: ≥ constraint bound %v exceeds coefficient sum %v (unsatisfiable)", bound, sum))
			return b
		}
	}
	b.sys.Add(vecmat.Vec(coeffs), sense, bound)
	return b
}

// Result reports a solve outcome in the caller's original units.
type Result struct {
	// Solver is the name of the backend that produced the result.
	Solver string
	// Assignment is the best feasible assignment found (nil if none).
	Assignment []int
	// Cost is the objective value of Assignment (+Inf if none).
	Cost float64
	// FeasibleRatio is the percentage of examined samples that were
	// feasible. The annealing backends (saim, penalty) examine exactly one
	// sample per run — the run's final state — so for them this equals the
	// percentage of feasible runs; parallel tempering examines every
	// replica at each sampling point; the constructive and exact backends
	// report 100. Progress.FeasibleRatio streams the same statistic
	// per-iteration.
	FeasibleRatio float64
	// Penalty is the penalty weight P used (zero for penalty-free backends).
	Penalty float64
	// Sweeps is the total Monte-Carlo sweep budget spent (zero for
	// non-sampling backends).
	Sweeps int64
	// Iterations is the number of iterations actually executed.
	Iterations int
	// Lambda is the final Lagrange multiplier vector (one per constraint),
	// nil for backends without multipliers.
	Lambda []float64
	// Stopped records why the solve returned: StopCompleted, StopCancelled,
	// StopTarget, StopPatience, or StopTimeLimit.
	Stopped StopReason
	// Optimal reports whether the result was proven optimal (exact backend
	// only).
	Optimal bool
	// Winner names the backend whose result won a "race" meta-solve
	// (empty for every other backend).
	Winner string
}

// Infeasible reports whether a result found no feasible assignment.
func (r *Result) Infeasible() bool { return r.Assignment == nil || math.IsInf(r.Cost, 1) }

func toBits(assignment []int, n int) (ising.Bits, error) {
	if len(assignment) != n {
		return nil, fmt.Errorf("saim: assignment length %d, want %d", len(assignment), n)
	}
	x := make(ising.Bits, n)
	for i, v := range assignment {
		switch v {
		case 0:
		case 1:
			x[i] = 1
		default:
			return nil, fmt.Errorf("saim: assignment[%d] = %d, want 0 or 1", i, v)
		}
	}
	return x, nil
}

func fromBits(x ising.Bits) []int {
	if x == nil {
		return nil
	}
	out := make([]int, len(x))
	for i, v := range x {
		out[i] = int(v)
	}
	return out
}

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func orDefaultF(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

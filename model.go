package saim

import (
	"fmt"
	"math"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/hoim"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/vecmat"
)

// Form classifies what a Model contains, and therefore which solvers can
// run it. Every Solver declares the forms it accepts via Solver.Accepts.
type Form int

const (
	// FormUnconstrained is a quadratic objective with no constraints
	// (a plain QUBO, e.g. max-cut).
	FormUnconstrained Form = iota
	// FormConstrained is a quadratic objective with linear ≤/= constraints
	// — the SAIM form of the paper (Algorithm 1).
	FormConstrained
	// FormHighOrder is a polynomial objective with polynomial equality
	// constraints, run on the higher-order Ising machine.
	FormHighOrder
)

// String implements fmt.Stringer.
func (f Form) String() string {
	switch f {
	case FormUnconstrained:
		return "unconstrained"
	case FormConstrained:
		return "constrained"
	case FormHighOrder:
		return "high-order"
	default:
		return fmt.Sprintf("Form(%d)", int(f))
	}
}

// Model is a built, validated optimization problem — the single input type
// of every registered Solver. A Model records whether it is unconstrained,
// linearly constrained (SAIM form), or high-order polynomial; solvers
// declare which forms they accept. Obtain one from Builder.Model.
type Model struct {
	form Form
	n    int

	// Quadratic forms: the objective in the caller's original units, the
	// original constraint system (empty when unconstrained), and the
	// normalized extended problem the core engine consumes.
	rawObj *ising.QUBO
	sys    *constraint.System
	inner  *core.Problem

	// High-order form: polynomial objective and equality constraints.
	hobj  *hoim.Poly
	hcons []*hoim.Poly
}

// Form reports what the model contains.
func (m *Model) Form() Form { return m.form }

// N returns the number of decision variables.
func (m *Model) N() int { return m.n }

// NumConstraints returns the number of constraints (linear or polynomial).
func (m *Model) NumConstraints() int {
	if m.form == FormHighOrder {
		return len(m.hcons)
	}
	return m.sys.M()
}

// Evaluate returns the objective value of an assignment in the caller's
// original units, and whether the assignment satisfies all constraints
// (always true for unconstrained models).
func (m *Model) Evaluate(assignment []int) (cost float64, feasible bool, err error) {
	x, err := toBits(assignment, m.n)
	if err != nil {
		return 0, false, err
	}
	switch m.form {
	case FormUnconstrained, FormConstrained:
		return m.rawObj.Energy(x), m.sys.Feasible(x, 1e-9), nil
	case FormHighOrder:
		feasible = true
		for _, g := range m.hcons {
			if math.Abs(g.Energy(x)) > 1e-9 {
				feasible = false
				break
			}
		}
		return m.hobj.Energy(x), feasible, nil
	default:
		return 0, false, fmt.Errorf("saim: unknown model form %v", m.form)
	}
}

// Monomial is one weighted product term w·Π_{i∈Vars} x_i of a higher-order
// pseudo-Boolean polynomial. An empty Vars list denotes a constant.
type Monomial struct {
	W    float64
	Vars []int
}

// Term adds the monomial w·Π_i x_i to the minimization objective. Duplicate
// variables collapse (x² = x). Terms of degree ≤ 2 land in the quadratic
// objective; any term of degree ≥ 3 marks the model as high-order, which
// restricts it to solvers accepting FormHighOrder.
func (b *Builder) Term(w float64, vars ...int) *Builder {
	uniq := dedupVars(vars)
	for _, v := range uniq {
		if !b.check(v) {
			return b
		}
	}
	switch len(uniq) {
	case 0:
		b.obj.AddConst(w)
	case 1:
		b.obj.AddLinear(uniq[0], w)
	case 2:
		b.obj.AddQuad(uniq[0], uniq[1], w)
	default:
		b.hterms = append(b.hterms, Monomial{W: w, Vars: uniq})
	}
	return b
}

// ConstrainPolyEQ adds the polynomial equality constraint Σ terms = 0,
// where each term is a weighted monomial over the decision variables. Any
// polynomial constraint marks the model as high-order.
func (b *Builder) ConstrainPolyEQ(terms ...Monomial) *Builder {
	if len(terms) == 0 {
		b.errs = append(b.errs, fmt.Errorf("saim: empty polynomial constraint"))
		return b
	}
	for _, t := range terms {
		for _, v := range t.Vars {
			if !b.check(v) {
				return b
			}
		}
	}
	cp := make([]Monomial, len(terms))
	for i, t := range terms {
		cp[i] = Monomial{W: t.W, Vars: append([]int(nil), t.Vars...)}
	}
	b.pcons = append(b.pcons, cp)
	return b
}

// Model validates the accumulated problem and returns the built Model,
// auto-detecting its form: high-order when any monomial of degree ≥ 3 or
// any polynomial constraint is present, constrained when linear constraints
// are present, unconstrained otherwise. The builder can be reused
// afterwards; further mutations do not affect the built model.
func (b *Builder) Model() (*Model, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.hterms) > 0 || len(b.pcons) > 0 {
		return b.buildHighOrder()
	}
	return b.buildQuadratic()
}

// buildQuadratic prepares the normalized SAIM form exactly as the paper
// prescribes: the extended (decision + slack) system and objective are each
// normalized by their largest absolute coefficient. The constraint system
// is deep-copied so reusing the builder never mutates a built model. An
// unconstrained model gets the same form with an empty system (M = 0):
// no slack columns, and the normalized objective is the whole energy.
func (b *Builder) buildQuadratic() (*Model, error) {
	sys := constraint.NewSystem(b.sys.N)
	for _, c := range b.sys.Cons {
		sys.Add(c.A, c.Sense, c.B) // Add clones the coefficient vector
	}
	ext := sys.Extend(constraint.Binary)
	ext.Normalize()

	raw := b.obj.Clone()
	extra := ext.NTotal - b.n // slack columns carry no objective
	grown := &ising.QUBO{Q: b.obj.Q.Grow(extra), C: vecmat.GrowVec(b.obj.C, extra), Const: b.obj.Const}
	grown.Normalize()

	inner := &core.Problem{
		Objective: grown,
		Ext:       ext,
		Cost: func(x ising.Bits) float64 {
			return raw.Energy(x)
		},
		Density: b.density,
	}
	if err := inner.Validate(); err != nil {
		return nil, err
	}
	form := FormConstrained
	if ext.M() == 0 {
		form = FormUnconstrained
	}
	return &Model{
		form:   form,
		n:      b.n,
		rawObj: raw,
		sys:    ext.Orig,
		inner:  inner,
	}, nil
}

// buildHighOrder assembles the polynomial objective and constraints for the
// higher-order Ising machine. Linear equality constraints convert to
// polynomials; linear inequality constraints would need slack encodings the
// high-order pipeline does not provide, so they are rejected.
func (b *Builder) buildHighOrder() (*Model, error) {
	f := hoim.NewPoly(b.n)
	if b.obj.Const != 0 {
		f.Add(b.obj.Const)
	}
	for i := 0; i < b.n; i++ {
		if c := b.obj.C[i]; c != 0 {
			f.Add(c, i)
		}
		for j := i + 1; j < b.n; j++ {
			if v := b.obj.Q.At(i, j); v != 0 {
				f.Add(2*v, i, j)
			}
		}
	}
	for _, t := range b.hterms {
		f.Add(t.W, t.Vars...)
	}

	var gs []*hoim.Poly
	for i, c := range b.sys.Cons {
		if c.Sense != constraint.EQ {
			return nil, fmt.Errorf("saim: linear %v constraint %d cannot join a high-order model (only equality constraints are supported there)", c.Sense, i)
		}
		g := hoim.NewPoly(b.n)
		for j, a := range c.A {
			if a != 0 {
				g.Add(a, j)
			}
		}
		if c.B != 0 {
			g.Add(-c.B)
		}
		gs = append(gs, g)
	}
	for k, ms := range b.pcons {
		g := hoim.NewPoly(b.n)
		for _, t := range ms {
			g.Add(t.W, t.Vars...)
		}
		if g.NumTerms() == 0 {
			return nil, fmt.Errorf("saim: polynomial constraint %d is identically zero", k)
		}
		gs = append(gs, g)
	}
	return &Model{form: FormHighOrder, n: b.n, hobj: f, hcons: gs}, nil
}

// dedupVars returns vars with duplicates removed, preserving first-seen
// order (x² = x, so repeated variables collapse). Monomials of the typical
// degree ≤ 4 stay on an allocation-light linear scan; high-arity monomials
// switch to a map so dedup is O(k) instead of O(k²).
func dedupVars(vars []int) []int {
	if len(vars) == 0 {
		return nil
	}
	const linearScanMax = 8
	out := make([]int, 0, len(vars))
	if len(vars) <= linearScanMax {
		for _, v := range vars {
			dup := false
			for _, u := range out {
				if u == v {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, v)
			}
		}
		return out
	}
	seen := make(map[int]struct{}, len(vars))
	for _, v := range vars {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

package model

import (
	"fmt"

	"github.com/ising-machines/saim/internal/constraint"
)

// NumConstraints returns the number of declared constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Columns returns the number of binary columns Compile lowers the model
// onto: the declared variables plus the slack bits each ≤ and ≥
// constraint gains under the binary encoding (constraint.SlackCoeffs of
// its folded bound, or of its surplus range Σa − b), counted from the
// constraints' bounds and coefficients without building anything dense.
// Compile's dense matrices grow with its square.
func (m *Model) Columns() int {
	n := m.vars
	for _, c := range m.cons {
		bound := c.bound - c.expr.c
		switch c.sense {
		case LE:
			n += len(constraint.SlackCoeffs(bound, constraint.Binary))
		case GE:
			// The surplus range constraint.Extend encodes: the positive
			// merged coefficients, summed in variable order, less the bound.
			lin, _, _ := c.expr.canonical()
			s := -bound
			for _, t := range lin {
				if t.w > 0 {
					s += t.w
				}
			}
			n += len(constraint.SlackCoeffs(max(s, 0), constraint.Binary))
		}
	}
	return n
}

// Maximizing reports whether the objective was declared with Maximize.
func (m *Model) Maximizing() bool { return m.max }

// ObjectiveTerms visits the model's objective in canonical minimization
// form — the exact monomials Compile would hand to the builder, without
// building anything dense. A Maximize objective arrives negated, so
// minimizing the visited terms always optimizes the declared objective.
//
// The visitor receives each merged, non-zero monomial once: the constant
// with no ids, linear terms with one id (ascending), quadratic terms with
// two (i < j, lexicographic), higher-order terms in declaration order.
// The ids slice is reused between calls — copy it to retain it.
//
// This is the sparse gateway for meta-solvers: a 10⁵-variable model's
// terms stream through here in O(terms) while Compile would need an
// O(N²) matrix.
func (m *Model) ObjectiveTerms(visit func(w float64, ids []int)) error {
	if err := m.Err(); err != nil {
		return err
	}
	if m.vars == 0 {
		return fmt.Errorf("model: no variables declared")
	}
	obj := m.obj
	if m.max {
		obj = obj.Mul(-1)
	}
	lin, quad, poly := obj.canonical()
	var buf [2]int
	if obj.c != 0 {
		visit(obj.c, nil)
	}
	for _, t := range lin {
		buf[0] = t.v
		visit(t.w, buf[:1])
	}
	for _, t := range quad {
		buf[0], buf[1] = t.i, t.j
		visit(t.w, buf[:2])
	}
	for _, t := range poly {
		visit(t.w, t.vars)
	}
	return nil
}

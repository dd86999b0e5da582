package model

import (
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/rng"
)

// extendedColumns is the column count constraint.Extend builds from the
// ≤ and ≥ rows Compile lowers a model's constraints to.
func extendedColumns(m *Model) int {
	sys := constraint.NewSystem(m.vars)
	for _, c := range m.cons {
		sense := constraint.LE
		switch c.sense {
		case EQ:
			continue // equalities gain no slack
		case GE:
			sense = constraint.GE
		}
		sys.Add(c.expr.linearCoeffs(m.vars), sense, c.bound-c.expr.c)
	}
	return sys.Extend(constraint.Binary).NTotal
}

// TestColumnsMatchesExtend pins Columns to the rule Compile applies: the
// declared variables plus the slack bits constraint.Extend appends under
// the binary encoding, on hand-picked bounds (zero, fractional, powers of
// two, past the int range) and on random ≤ and ≥ rows with repeated
// variables, constants and fractional weights of either sign.
func TestColumnsMatchesExtend(t *testing.T) {
	m := New()
	x := m.Binary("x", 5)
	for _, b := range []float64{0, 0.5, 1, 7, 8, 1e6, 4e18, 1e300} {
		m.Constrain("", x[0].Mul(1).LE(b))
	}
	// Merged coefficients 5 and 4 and a constant: surplus 9 − 2 = 7.
	m.Constrain("", Sum(x[0].Mul(3), x[0].Mul(2), x[1].Mul(4)).GE(2))
	m.Constrain("", x[2].Mul(2).Add(Const(3)).LE(10))
	m.Constrain("", x[3].Mul(1).EQ(1))
	if got, want := m.Columns(), extendedColumns(m); got != want {
		t.Fatalf("hand-picked bounds: Columns = %d, Extend builds %d", got, want)
	}

	src := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		m := New()
		n := 1 + src.Intn(12)
		x := m.Binary("x", n)
		for k := src.Intn(6); k > 0; k-- {
			terms := []Expr{Const(float64(src.IntRange(-3, 3)))}
			for j := src.Intn(2 * n); j >= 0; j-- {
				terms = append(terms, x[src.Intn(n)].Mul(float64(src.IntRange(-10, 40))/4))
			}
			e := Sum(terms...)
			if src.Bool(0.5) {
				m.Constrain("", e.LE(math.Ldexp(src.Float64(), src.Intn(70))))
			} else {
				m.Constrain("", e.GE(float64(src.IntRange(0, 8))))
			}
		}
		if got, want := m.Columns(), extendedColumns(m); got != want {
			t.Fatalf("trial %d: Columns = %d, Extend builds %d", trial, got, want)
		}
	}
}

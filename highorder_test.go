package saim

import "testing"

// Same scenario as the hoim package test, through the public API: minimize
// −x₂−x₃ s.t. x₀·x₁ = 1 (quadratic constraint!) and Σx = 3 ⇒ OPT −1.
func TestSolveHighOrderQuadraticConstraint(t *testing.T) {
	b := NewBuilder(4)
	b.Term(-1, 2).Term(-1, 3)
	b.ConstrainPolyEQ(Monomial{W: 1, Vars: []int{0, 1}}, Monomial{W: -1})
	b.ConstrainPolyEQ(Monomial{W: 1, Vars: []int{0}}, Monomial{W: 1, Vars: []int{1}},
		Monomial{W: 1, Vars: []int{2}}, Monomial{W: 1, Vars: []int{3}}, Monomial{W: -3})
	m := mustModel(t, b)
	if m.Form() != FormHighOrder {
		t.Fatalf("form = %v, want high-order", m.Form())
	}
	res := mustSolve(t, "saim", m, WithPenalty(2), WithEta(0.5), WithIterations(150),
		WithSweepsPerRun(150), WithBetaMax(8), WithSeed(9))
	if res.Infeasible() {
		t.Fatal("no feasible assignment")
	}
	if res.Cost != -1 {
		t.Fatalf("Cost = %v, want -1", res.Cost)
	}
	if res.Assignment[0] != 1 || res.Assignment[1] != 1 {
		t.Fatalf("Assignment = %v", res.Assignment)
	}
	if len(res.Lambda) != 2 {
		t.Fatalf("Lambda = %v", res.Lambda)
	}
}

func TestSolveHighOrderValidation(t *testing.T) {
	if _, err := NewBuilder(0).ConstrainPolyEQ(Monomial{W: 1}).Model(); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := NewBuilder(2).ConstrainPolyEQ(Monomial{W: 1, Vars: []int{7}}).Model(); err == nil {
		t.Fatal("accepted out-of-range variable")
	}
	b := NewBuilder(2)
	b.Term(1, -1).ConstrainPolyEQ(Monomial{W: 1, Vars: []int{0}})
	if _, err := b.Model(); err == nil {
		t.Fatal("accepted negative variable index")
	}
}

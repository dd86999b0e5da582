package saim

import (
	"context"
	"slices"
	"testing"
)

// quadraticConstraintModel is the hoim package test's scenario: minimize
// −x₂−x₃ s.t. x₀·x₁ = 1 (quadratic constraint!) and Σx = 3 ⇒ OPT −1.
func quadraticConstraintModel(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder(4)
	b.Term(-1, 2).Term(-1, 3)
	b.ConstrainPolyEQ(Monomial{W: 1, Vars: []int{0, 1}}, Monomial{W: -1})
	b.ConstrainPolyEQ(Monomial{W: 1, Vars: []int{0}}, Monomial{W: 1, Vars: []int{1}},
		Monomial{W: 1, Vars: []int{2}}, Monomial{W: 1, Vars: []int{3}}, Monomial{W: -3})
	m := mustModel(t, b)
	if m.Form() != FormHighOrder {
		t.Fatalf("form = %v, want high-order", m.Form())
	}
	return m
}

// highOrderBudget solves quadraticConstraintModel to its optimum.
func highOrderBudget(extra ...Option) []Option {
	return append([]Option{WithPenalty(2), WithEta(0.5), WithIterations(150),
		WithSweepsPerRun(150), WithBetaMax(8), WithSeed(9)}, extra...)
}

// The high-order scenario through the public API.
func TestSolveHighOrderQuadraticConstraint(t *testing.T) {
	m := quadraticConstraintModel(t)
	res := mustSolve(t, "saim", m, highOrderBudget()...)
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

// High-order saim honours WithCheckpoint and WithInitial by the quadratic
// forms' rule: each strict improvement is checkpointed with a feasible
// assignment that re-evaluates to its cost, and a warm start at the
// proven optimum, with that target, answers at 0 iterations.
func TestSolveHighOrderCheckpointAndWarmStart(t *testing.T) {
	m := quadraticConstraintModel(t)
	var costs []float64
	res := mustSolve(t, "saim", m, highOrderBudget(WithCheckpoint(func(a []int, cost float64) {
		got, feasible, err := m.Evaluate(a)
		if err != nil || !feasible || got != cost {
			t.Errorf("checkpoint %v at cost %v evaluates to %v (feasible %v, %v)", a, cost, got, feasible, err)
		}
		if n := len(costs); n > 0 && cost >= costs[n-1] {
			t.Errorf("checkpoint cost %v after %v is no improvement", cost, costs[n-1])
		}
		costs = append(costs, cost)
	}))...)
	if len(costs) == 0 || costs[len(costs)-1] != res.Cost {
		t.Fatalf("checkpoints %v, want them to end at the result's cost %v", costs, res.Cost)
	}

	warm := mustSolve(t, "saim", m, highOrderBudget(WithInitial(res.Assignment), WithTargetCost(-1))...)
	if warm.Iterations != 0 || warm.Sweeps != 0 || warm.Stopped != StopTarget ||
		warm.Cost != -1 || !slices.Equal(warm.Assignment, res.Assignment) {
		t.Fatalf("warm start at the optimum: %d iterations, %d sweeps, stopped %v, %v at cost %v; want 0, 0, %v, %v at -1",
			warm.Iterations, warm.Sweeps, warm.Stopped, warm.Assignment, warm.Cost, StopTarget, res.Assignment)
	}
	if _, err := SolveModel(context.Background(), "saim", m, WithInitial([]int{1, 0})); err == nil {
		t.Fatal("accepted a wrong-length initial assignment")
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

package saim

import (
	"context"
	"math"
	"testing"
)

// knapsack3 builds max 6x₀+5x₁+8x₂ s.t. 2x₀+3x₁+4x₂ ≤ 5: OPT takes items
// 0 and 1? (2+3=5 ≤ 5, value 11) vs item 2 alone (value 8) vs 0+2 (6 weight,
// no). OPT = 11.
func knapsack3(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder(3)
	b.Linear(0, -6).Linear(1, -5).Linear(2, -8)
	b.ConstrainLE([]float64{2, 3, 4}, 5)
	return mustModel(t, b)
}

// mustModel builds the builder's model or fails the test.
func mustModel(t *testing.T, b *Builder) *Model {
	t.Helper()
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustSolve runs a registered solver or fails the test.
func mustSolve(t *testing.T, solver string, m *Model, opts ...Option) *Result {
	t.Helper()
	res, err := SolveModel(context.Background(), solver, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolveQuickstart(t *testing.T) {
	p := knapsack3(t)
	res := mustSolve(t, "saim", p, WithIterations(150), WithSweepsPerRun(150), WithEta(1), WithSeed(1))
	if res.Solver != "saim" {
		t.Fatalf("result labeled %q", res.Solver)
	}
	if res.Infeasible() {
		t.Fatal("no feasible assignment")
	}
	if res.Cost != -11 {
		t.Fatalf("Cost = %v, want -11", res.Cost)
	}
	if res.Assignment[0] != 1 || res.Assignment[1] != 1 || res.Assignment[2] != 0 {
		t.Fatalf("Assignment = %v", res.Assignment)
	}
	if len(res.Lambda) != 1 {
		t.Fatalf("Lambda = %v", res.Lambda)
	}
	if res.Sweeps != 150*150 {
		t.Fatalf("Sweeps = %d", res.Sweeps)
	}
}

func TestEvaluate(t *testing.T) {
	p := knapsack3(t)
	cost, feasible, err := p.Evaluate([]int{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if cost != -11 || !feasible {
		t.Fatalf("Evaluate = %v, %v", cost, feasible)
	}
	cost, feasible, err = p.Evaluate([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Fatal("overweight assignment reported feasible")
	}
	if cost != -19 {
		t.Fatalf("cost = %v", cost)
	}
	if _, _, err := p.Evaluate([]int{1}); err == nil {
		t.Fatal("accepted short assignment")
	}
	if _, _, err := p.Evaluate([]int{1, 2, 0}); err == nil {
		t.Fatal("accepted non-binary assignment")
	}
}

func TestQuadraticObjective(t *testing.T) {
	// Pair bonus makes {0,1} beat the individually-better item 2:
	// values 3,3,7 with pair bonus 6 on (0,1), weights 1,1,2, cap 2.
	b := NewBuilder(3)
	b.Linear(0, -3).Linear(1, -3).Linear(2, -7)
	b.Quadratic(0, 1, -6)
	b.ConstrainLE([]float64{1, 1, 2}, 2)
	res := mustSolve(t, "saim", mustModel(t, b), WithIterations(200), WithSweepsPerRun(150), WithEta(1), WithSeed(5))
	if res.Cost != -12 {
		t.Fatalf("Cost = %v, want -12 (items 0+1)", res.Cost)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// Exactly one of three items (one-hot): min -x₂ s.t. Σx = 1.
	b := NewBuilder(3)
	b.Linear(2, -5).Linear(1, -1)
	b.ConstrainEQ([]float64{1, 1, 1}, 1)
	res := mustSolve(t, "saim", mustModel(t, b), WithIterations(120), WithSweepsPerRun(120), WithEta(1), WithSeed(2))
	if res.Infeasible() {
		t.Fatal("no feasible assignment")
	}
	if res.Assignment[2] != 1 || res.Assignment[0] != 0 || res.Assignment[1] != 0 {
		t.Fatalf("Assignment = %v", res.Assignment)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(0).Model(); err == nil {
		t.Fatal("accepted n=0")
	}
	b := NewBuilder(2)
	b.Linear(5, 1)
	if _, err := b.Model(); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	b = NewBuilder(2)
	b.Quadratic(1, 1, 1)
	if _, err := b.Model(); err == nil {
		t.Fatal("accepted diagonal quadratic")
	}
	b = NewBuilder(2)
	b.ConstrainLE([]float64{1}, 1)
	if _, err := b.Model(); err == nil {
		t.Fatal("accepted wrong-length constraint")
	}
	b = NewBuilder(2)
	b.ConstrainLE([]float64{-1, 1}, 1)
	if _, err := b.Model(); err == nil {
		t.Fatal("accepted negative ≤ coefficient")
	}
	b = NewBuilder(2)
	b.ConstrainLE([]float64{1, 1}, -1)
	if _, err := b.Model(); err == nil {
		t.Fatal("accepted negative bound")
	}
}

func TestSolvePenaltyMethodComparison(t *testing.T) {
	p := knapsack3(t)
	res := mustSolve(t, "penalty", p, WithPenalty(50), WithIterations(150), WithSweepsPerRun(150), WithSeed(3))
	if res.Infeasible() {
		t.Fatal("penalty method found nothing at large P")
	}
	if res.Cost > -8 {
		t.Fatalf("penalty method cost %v implausibly bad", res.Cost)
	}
	if _, err := SolveModel(context.Background(), "penalty", p, WithPenalty(-1)); err == nil {
		t.Fatal("accepted negative penalty weight")
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := knapsack3(t)
	opts := []Option{WithIterations(60), WithSweepsPerRun(80), WithEta(1), WithSeed(11)}
	a, b := mustSolve(t, "saim", p, opts...), mustSolve(t, "saim", p, opts...)
	if a.Cost != b.Cost || a.FeasibleRatio != b.FeasibleRatio {
		t.Fatal("same seed, different results")
	}
}

func TestResultInfeasible(t *testing.T) {
	r := &Result{Cost: math.Inf(1)}
	if !r.Infeasible() {
		t.Fatal("nil assignment should be infeasible")
	}
}

func TestSolveParallelFacade(t *testing.T) {
	p := knapsack3(t)
	res := mustSolve(t, "saim", p, WithIterations(60), WithSweepsPerRun(100), WithEta(1), WithSeed(1), WithReplicas(3))
	if res.Infeasible() {
		t.Fatal("no feasible assignment")
	}
	if res.Cost != -11 {
		t.Fatalf("Cost = %v, want -11", res.Cost)
	}
	if res.Sweeps != 3*60*100 {
		t.Fatalf("Sweeps = %d", res.Sweeps)
	}
	if res.Iterations != 3*60 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
}

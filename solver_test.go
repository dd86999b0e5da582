package saim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// smallQKP builds a 10-item quadratic knapsack with integer data so every
// backend — including the combinatorial ones — can solve it. The known
// optimum was verified by brute force (the exact backend proves it below).
func smallQKP(t *testing.T) *Model {
	t.Helper()
	values := []float64{10, 14, 8, 20, 6, 12, 9, 17, 5, 11}
	weights := []float64{4, 6, 3, 8, 2, 5, 4, 7, 2, 5}
	pairs := []struct {
		i, j int
		w    float64
	}{
		{0, 1, 5}, {1, 3, 7}, {2, 4, 3}, {3, 7, 9}, {5, 6, 4}, {8, 9, 6},
	}
	const capacity = 23

	b := NewBuilder(len(values))
	for i, v := range values {
		b.Linear(i, -v)
	}
	for _, p := range pairs {
		b.Quadratic(p.i, p.j, -p.w)
	}
	b.ConstrainLE(weights, capacity)
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m.Form() != FormConstrained {
		t.Fatalf("Form = %v, want constrained", m.Form())
	}
	return m
}

func TestRegistryHasAllBackends(t *testing.T) {
	want := []string{"decomp", "exact", "ga", "greedy", "penalty", "pt", "saim"}
	got := Solvers()
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("Solvers() = %v, missing %q", got, name)
		}
	}
}

func TestRegistryRejectsUnknownAndDuplicates(t *testing.T) {
	if _, err := Get("no-such-solver"); err == nil {
		t.Fatal("Get accepted an unknown solver name")
	}
	if err := Register(&saimSolver{}); err == nil {
		t.Fatal("Register accepted a duplicate name")
	}
	if err := Register(nil); err == nil {
		t.Fatal("Register accepted a nil solver")
	}
	if _, err := SolveModel(context.Background(), "no-such-solver", smallQKP(t)); err == nil {
		t.Fatal("SolveModel accepted an unknown solver name")
	}
}

// TestBackendsRoundTripQKP is the acceptance check of the unified API:
// all six backends solve the same small QKP through the same Model, every
// result is feasible, and none beats the proven optimum.
func TestBackendsRoundTripQKP(t *testing.T) {
	m := smallQKP(t)
	ctx := context.Background()

	ref, err := SolveModel(ctx, "exact", m)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Infeasible() || !ref.Optimal {
		t.Fatalf("exact: infeasible=%v optimal=%v", ref.Infeasible(), ref.Optimal)
	}
	opt := ref.Cost

	opts := []Option{
		WithIterations(300), WithSweepsPerRun(200), WithEta(2), WithSeed(5),
	}
	for _, name := range Solvers() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Accepts(m.Form()) {
			t.Fatalf("solver %q does not accept %v", name, m.Form())
		}
		res, err := s.Solve(ctx, m, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Solver != name {
			t.Fatalf("%s: result labeled %q", name, res.Solver)
		}
		if res.Infeasible() {
			t.Fatalf("%s: no feasible assignment", name)
		}
		cost, feasible, err := m.Evaluate(res.Assignment)
		if err != nil || !feasible {
			t.Fatalf("%s: assignment not feasible (err=%v)", name, err)
		}
		if cost != res.Cost {
			t.Fatalf("%s: reported cost %v, evaluated %v", name, res.Cost, cost)
		}
		if res.Cost < opt-1e-9 {
			t.Fatalf("%s: cost %v beats proven optimum %v", name, res.Cost, opt)
		}
	}
}

// TestCancellationReturnsBestSoFar proves ctx aborts a long solve within
// one annealing run and still returns the best feasible assignment found.
func TestCancellationReturnsBestSoFar(t *testing.T) {
	m := smallQKP(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const total = 1_000_000 // would take minutes uncancelled
	start := time.Now()
	res, err := SolveModel(ctx, "saim", m,
		WithIterations(total), WithSweepsPerRun(100), WithEta(2), WithSeed(3),
		WithProgress(func(p Progress) {
			if p.Iteration >= 20 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, StopCancelled)
	}
	if res.Iterations >= total/100 {
		t.Fatalf("executed %d iterations, cancellation was not prompt", res.Iterations)
	}
	if res.Infeasible() {
		t.Fatal("cancelled solve lost the best-so-far assignment")
	}
	if _, feasible, _ := m.Evaluate(res.Assignment); !feasible {
		t.Fatal("best-so-far assignment is not feasible")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

func TestPreCancelledContext(t *testing.T) {
	m := smallQKP(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveModel(ctx, "saim", m, WithIterations(1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopCancelled || res.Iterations != 0 {
		t.Fatalf("Stopped=%v Iterations=%d, want immediate cancellation", res.Stopped, res.Iterations)
	}
	if !res.Infeasible() {
		t.Fatal("zero-iteration solve cannot have found an assignment")
	}
}

func TestProgressStreams(t *testing.T) {
	m := smallQKP(t)
	var events []Progress
	res, err := SolveModel(context.Background(), "saim", m,
		WithIterations(30), WithSweepsPerRun(50), WithEta(2), WithSeed(1),
		WithProgress(func(p Progress) { events = append(events, p) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 30 {
		t.Fatalf("got %d progress events, want 30", len(events))
	}
	last := events[len(events)-1]
	if last.Solver != "saim" || last.Iteration != 29 || last.Iterations != 30 {
		t.Fatalf("last event = %+v", last)
	}
	if last.Sweeps != res.Sweeps {
		t.Fatalf("progress sweeps %d, result sweeps %d", last.Sweeps, res.Sweeps)
	}
	if last.LambdaNorm < 0 || math.IsNaN(last.LambdaNorm) {
		t.Fatalf("bad lambda norm %v", last.LambdaNorm)
	}
	for i := 1; i < len(events); i++ {
		if events[i].BestCost > events[i-1].BestCost {
			t.Fatal("best cost regressed in the progress stream")
		}
	}
}

func TestTargetCostStopsEarly(t *testing.T) {
	m := smallQKP(t)
	// Any feasible solution at all satisfies a target of 0 (all values are
	// positive, so feasible costs are negative).
	res, err := SolveModel(context.Background(), "saim", m,
		WithIterations(100000), WithSweepsPerRun(100), WithEta(2), WithSeed(2),
		WithTargetCost(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopTarget {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, StopTarget)
	}
	if res.Iterations >= 100000 {
		t.Fatal("target did not stop the solve early")
	}
	if res.Infeasible() || res.Cost > -1 {
		t.Fatalf("target result: cost %v", res.Cost)
	}
}

func TestPatienceStopsEarly(t *testing.T) {
	m := smallQKP(t)
	res, err := SolveModel(context.Background(), "saim", m,
		WithIterations(100000), WithSweepsPerRun(100), WithEta(2), WithSeed(2),
		WithPatience(25),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopPatience {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, StopPatience)
	}
	if res.Iterations >= 100000 {
		t.Fatal("patience did not stop the solve early")
	}
}

func TestFormGating(t *testing.T) {
	// Unconstrained model: only "saim" accepts it.
	b := NewBuilder(3)
	b.Linear(0, -1).Linear(1, -1).Quadratic(0, 1, 2)
	unconstrained, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	if unconstrained.Form() != FormUnconstrained {
		t.Fatalf("Form = %v", unconstrained.Form())
	}
	for _, name := range []string{"penalty", "pt", "ga", "greedy", "exact"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Accepts(FormUnconstrained) {
			t.Fatalf("%s claims to accept unconstrained models", name)
		}
		if _, err := s.Solve(context.Background(), unconstrained); err == nil {
			t.Fatalf("%s solved an unconstrained model", name)
		} else if !strings.Contains(err.Error(), "does not accept") {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
	}

	// High-order model: likewise saim-only.
	hb := NewBuilder(4)
	hb.Term(-1, 0, 1, 2)
	hb.ConstrainPolyEQ(Monomial{W: 1, Vars: []int{0, 1}}, Monomial{W: -1})
	high, err := hb.Model()
	if err != nil {
		t.Fatal(err)
	}
	if high.Form() != FormHighOrder {
		t.Fatalf("Form = %v", high.Form())
	}
	if _, err := SolveModel(context.Background(), "pt", high); err == nil {
		t.Fatal("pt solved a high-order model")
	}
	res, err := SolveModel(context.Background(), "saim", high,
		WithPenalty(2), WithEta(0.5), WithIterations(100), WithSweepsPerRun(100), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible() {
		t.Fatal("saim found no feasible high-order assignment")
	}
	if res.Assignment[0] != 1 || res.Assignment[1] != 1 {
		t.Fatalf("constraint x0*x1=1 violated: %v", res.Assignment)
	}
}

// TestUnconstrainedSolve checks the saim backend's unconstrained path end
// to end, including target-based early stopping in raw (un-normalized)
// units.
func TestUnconstrainedSolve(t *testing.T) {
	// E = 2x0x1 − x0 − x1: minima at (1,0)/(0,1) with energy −1.
	b := NewBuilder(2)
	b.Linear(0, -1).Linear(1, -1).Quadratic(0, 1, 2)
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveModel(context.Background(), "saim", m,
		WithIterations(500), WithSweepsPerRun(100), WithSeed(1), WithTargetCost(-1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != -1 {
		t.Fatalf("Cost = %v, want -1", res.Cost)
	}
	if res.Stopped != StopTarget {
		t.Fatalf("Stopped = %v, want target (raw-unit target must map into normalized energies)", res.Stopped)
	}
	if res.Assignment[0]+res.Assignment[1] != 1 {
		t.Fatalf("Assignment = %v", res.Assignment)
	}
}

// TestGAQuadraticFitness verifies the generalized GA optimizes the *true*
// quadratic value, not just the linear part: two cheap synergistic items
// must beat one individually-better item.
func TestGAQuadraticFitness(t *testing.T) {
	// Items 0,1: value 3 each, pair bonus 10; item 2: value 9.
	// Capacity admits {0,1} (weights 1+1=2) or {2} (weight 2).
	b := NewBuilder(3)
	b.Linear(0, -3).Linear(1, -3).Linear(2, -9)
	b.Quadratic(0, 1, -10)
	b.ConstrainLE([]float64{1, 1, 2}, 2)
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveModel(context.Background(), "ga", m, WithSeed(4), WithIterations(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible() || res.Cost != -16 {
		t.Fatalf("ga cost = %v, want -16 (items 0+1 with synergy)", res.Cost)
	}
}

func TestCombinatorialBackendsRejectNonIntegerData(t *testing.T) {
	b := NewBuilder(2)
	b.Linear(0, -1.5).Linear(1, -2)
	b.ConstrainLE([]float64{1, 1}, 1)
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ga", "greedy", "exact"} {
		if _, err := SolveModel(context.Background(), name, m); err == nil {
			t.Fatalf("%s accepted non-integer knapsack data", name)
		}
	}
	// The sampling backends are unaffected by fractional data.
	res, err := SolveModel(context.Background(), "saim", m,
		WithIterations(100), WithSweepsPerRun(100), WithEta(1), WithSeed(1))
	if err != nil || res.Infeasible() {
		t.Fatalf("saim on fractional data: res=%+v err=%v", res, err)
	}
}

// TestBuilderReuseDoesNotMutateModel guards the documented guarantee that
// further builder mutations leave already-built models untouched.
func TestBuilderReuseDoesNotMutateModel(t *testing.T) {
	b := NewBuilder(2)
	b.Linear(0, -3).Linear(1, -4)
	b.ConstrainLE([]float64{1, 1}, 2)
	m1, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	b.ConstrainLE([]float64{1, 1}, 1) // tighter second constraint
	m2, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m1.NumConstraints() != 1 || m2.NumConstraints() != 2 {
		t.Fatalf("constraints: m1=%d m2=%d, want 1 and 2", m1.NumConstraints(), m2.NumConstraints())
	}
	if _, feasible, _ := m1.Evaluate([]int{1, 1}); !feasible {
		t.Fatal("builder reuse mutated the first model's constraint system")
	}
	if _, feasible, _ := m2.Evaluate([]int{1, 1}); feasible {
		t.Fatal("second model missing the tighter constraint")
	}
}

// Quadratic models of both forms run replicas on the core engine's pool;
// the high-order machine has none, so saim rejects replicas there rather
// than silently running one chain.
func TestReplicasRejectedOffConstrainedForm(t *testing.T) {
	b := NewBuilder(2)
	b.Linear(0, -1).Linear(1, -1).Quadratic(0, 1, 2)
	m := mustModel(t, b)
	res, err := SolveModel(context.Background(), "saim", m, WithReplicas(4), WithIterations(10), WithSweepsPerRun(20))
	if err != nil {
		t.Fatalf("saim rejected WithReplicas on an unconstrained model: %v", err)
	}
	if res.Iterations != 4*10 || res.Cost != -1 {
		t.Fatalf("unconstrained replicas: %d iterations, cost %v", res.Iterations, res.Cost)
	}
	b = NewBuilder(3)
	b.Term(-1, 0, 1, 2)
	if _, err := SolveModel(context.Background(), "saim", mustModel(t, b), WithReplicas(4)); err == nil {
		t.Fatal("saim accepted WithReplicas on a high-order model")
	}
}

func TestHighOrderReportsSweeps(t *testing.T) {
	b := NewBuilder(3)
	b.Linear(2, -1)
	b.ConstrainPolyEQ(Monomial{W: 1, Vars: []int{0, 1}}, Monomial{W: -1})
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveModel(context.Background(), "saim", m,
		WithPenalty(2), WithIterations(20), WithSweepsPerRun(30), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps != 20*30 {
		t.Fatalf("high-order Sweeps = %d, want %d", res.Sweeps, 20*30)
	}
}

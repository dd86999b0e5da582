package core_test

import (
	"context"
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/qkp"
)

func smallQKP(t *testing.T) (*core.Problem, *qkp.Instance, float64) {
	t.Helper()
	inst := qkp.Generate(14, 0.5, 1, 77)
	ref, err := exact.BruteForceQKP(inst)
	if err != nil {
		t.Fatal(err)
	}
	return inst.ToProblem(constraint.Binary), inst, ref.Cost
}

func solvePenalty(t *testing.T, p *core.Problem, o core.Options) *core.Result {
	t.Helper()
	res, err := core.SolvePenaltyContext(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolvePenaltyFindsGoodFeasibleSolutions(t *testing.T) {
	p, inst, opt := smallQKP(t)
	// Penalty weights act on the normalized energy; the paper's tuned
	// values are 40–500·d·N, i.e. O(100) for a problem of this size.
	res := solvePenalty(t, p, core.Options{P: 100, Iterations: 60, SweepsPerRun: 300, BetaMax: 10, Seed: 1})
	if res.Best == nil {
		t.Fatal("no feasible sample")
	}
	if !inst.Feasible(res.Best) {
		t.Fatal("reported best infeasible")
	}
	if acc := qkp.Accuracy(res.BestCost, opt); acc < 90 {
		t.Fatalf("accuracy %v%% below 90%%", acc)
	}
	if res.TotalSweeps != 60*300 {
		t.Fatalf("TotalSweeps = %d", res.TotalSweeps)
	}
	// η is pinned to 0 whatever Options.Eta says: λ never leaves zero.
	for _, l := range res.Lambda {
		if l != 0 {
			t.Fatalf("λ moved under the penalty method: %v", res.Lambda)
		}
	}
}

func TestSolvePenaltyTinyPMostlyInfeasible(t *testing.T) {
	p, _, _ := smallQKP(t)
	tiny := solvePenalty(t, p, core.Options{P: 0.5, Iterations: 40, SweepsPerRun: 200, BetaMax: 10, Seed: 2})
	large := solvePenalty(t, p, core.Options{P: 100, Iterations: 40, SweepsPerRun: 200, BetaMax: 10, Seed: 2})
	// The paper's observation: larger P raises feasibility.
	if tiny.FeasibleRatio() >= large.FeasibleRatio() {
		t.Fatalf("feasibility did not increase with P: %v%% vs %v%%",
			tiny.FeasibleRatio(), large.FeasibleRatio())
	}
}

func TestSolvePenaltyDeterministic(t *testing.T) {
	p, _, _ := smallQKP(t)
	o := core.Options{P: 5, Iterations: 10, SweepsPerRun: 100, Seed: 9}
	a, b := solvePenalty(t, p, o), solvePenalty(t, p, o)
	if a.BestCost != b.BestCost || a.FeasibleCount != b.FeasibleCount {
		t.Fatal("same seed, different outcomes")
	}
	// Options.Eta is ignored: the run is the same at any step size.
	o.Eta = 50
	if c := solvePenalty(t, p, o); c.BestCost != a.BestCost || c.FeasibleCount != a.FeasibleCount {
		t.Fatal("Options.Eta changed a penalty-method solve")
	}
}

// A penalty-method result counts feasibility per annealing run: one final
// sample per run, so FeasibleRatio is the percentage of feasible runs.
func TestSolvePenaltyFeasibleRatio(t *testing.T) {
	p, _, _ := smallQKP(t)
	var tr core.Trace
	const runs = 24
	res := solvePenalty(t, p, core.Options{P: 100, Iterations: runs, SweepsPerRun: 200, BetaMax: 10, Seed: 4, Trace: &tr})
	if res.Iterations != runs || len(tr.Feasible) != runs {
		t.Fatalf("Iterations = %d, traced runs = %d, want %d", res.Iterations, len(tr.Feasible), runs)
	}
	feasible, best := 0, math.Inf(1)
	for k, ok := range tr.Feasible {
		if ok {
			feasible++
			best = math.Min(best, tr.Cost[k])
		}
	}
	if feasible == 0 || feasible == runs {
		t.Fatalf("%d of %d runs feasible; the check needs both kinds", feasible, runs)
	}
	if res.FeasibleCount != feasible {
		t.Fatalf("FeasibleCount = %d, trace has %d feasible runs", res.FeasibleCount, feasible)
	}
	if want := 100 * float64(feasible) / runs; res.FeasibleRatio() != want {
		t.Fatalf("FeasibleRatio = %v, want %v", res.FeasibleRatio(), want)
	}
	if res.BestCost != best {
		t.Fatalf("BestCost = %v, best feasible traced cost = %v", res.BestCost, best)
	}
}

func TestSolvePenaltyRejectsInvalidProblem(t *testing.T) {
	if _, err := core.SolvePenaltyContext(context.Background(), &core.Problem{}, core.Options{P: 1}); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

// An unconstrained QUBO is a Problem with an empty constraint system.
func TestSolveUnconstrainedGroundState(t *testing.T) {
	// Tiny max-cut-like QUBO: E = 2x0x1 - x0 - x1 has minima at (1,0),(0,1).
	q := ising.NewQUBO(2)
	q.AddQuad(0, 1, 2)
	q.AddLinear(0, -1)
	q.AddLinear(1, -1)
	p := &core.Problem{Objective: q, Ext: constraint.NewSystem(2).Extend(constraint.Binary), Cost: q.Energy}
	res, err := core.Solve(p, core.Options{Iterations: 20, SweepsPerRun: 100, BetaMax: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != -1 {
		t.Fatalf("energy = %v, want -1", res.BestCost)
	}
	if res.Best[0]+res.Best[1] != 1 {
		t.Fatalf("x = %v", res.Best)
	}
	if res.FeasibleCount != 20 || res.P != 0 || len(res.Lambda) != 0 {
		t.Fatalf("M = 0 solve: feasible %d of 20, P %v, λ %v", res.FeasibleCount, res.P, res.Lambda)
	}
}

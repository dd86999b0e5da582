package qkp_test

import (
	"context"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/qkp"
)

// Integration test of the paper's central claim on a small QKP: at the
// heuristic P = 2·d·N — far below the critical Pc — the plain penalty
// method finds (almost) no feasible samples, while SAIM's λ adaptation
// reaches the exact optimum.
func TestSAIMBeatsPenaltyAtSameSmallP(t *testing.T) {
	inst := qkp.Generate(14, 0.5, 1, 77)
	ref, err := exact.BruteForceQKP(inst)
	if err != nil {
		t.Fatal(err)
	}
	p := inst.ToProblem(constraint.Binary)

	saim, err := core.Solve(p, core.Options{
		Alpha: 2, Eta: 20, Iterations: 300, SweepsPerRun: 300, BetaMax: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pen, err := core.SolvePenaltyContext(context.Background(), p, core.Options{
		P: saim.P, Iterations: 300, SweepsPerRun: 300, BetaMax: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Same P, same sample budget: the static penalty energy yields almost
	// no feasible samples (paper Fig. 1b, P < Pc)...
	if pen.FeasibleRatio() > 10 {
		t.Fatalf("penalty method unexpectedly feasible at P=%v: %v%%", saim.P, pen.FeasibleRatio())
	}
	// ...while SAIM closes the gap and finds the optimum (Fig. 1c/d).
	if saim.Best == nil {
		t.Fatal("SAIM found no feasible sample")
	}
	if acc := qkp.Accuracy(saim.BestCost, ref.Cost); acc < 99 {
		t.Fatalf("SAIM accuracy %v%% below 99%%", acc)
	}
	if saim.FeasibleRatio() < 20 {
		t.Fatalf("SAIM feasibility %v%% suspiciously low", saim.FeasibleRatio())
	}
}

// SAIM must be robust across η over an order of magnitude (the paper's
// "less parameter-sensitive" claim).
func TestSAIMRobustToEta(t *testing.T) {
	inst := qkp.Generate(30, 0.5, 1, 77)
	ref, err := exact.SolveQKP(inst, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Optimal {
		t.Fatal("reference not proven optimal")
	}
	p := inst.ToProblem(constraint.Binary)
	for _, eta := range []float64{5, 20, 50} {
		res, err := core.Solve(p, core.Options{
			Alpha: 2, Eta: eta, Iterations: 300, SweepsPerRun: 300, BetaMax: 10, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatalf("η=%v: no feasible sample", eta)
		}
		if acc := qkp.Accuracy(res.BestCost, ref.Cost); acc < 98 {
			t.Fatalf("η=%v: accuracy %v%% below 98%%", eta, acc)
		}
	}
}

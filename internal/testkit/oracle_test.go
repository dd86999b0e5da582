package testkit

import (
	"context"
	"math"
	"strings"
	"testing"

	saim "github.com/ising-machines/saim"
)

// extractionBackends may reject structurally incompatible models (they
// need integer knapsack form); every other backend must solve whatever
// form it Accepts.
var extractionBackends = map[string]bool{"ga": true, "greedy": true, "exact": true}

// oracleBudget returns a small deterministic budget per backend.
func oracleBudget(name string) []saim.Option {
	opts := []saim.Option{
		saim.WithSeed(7),
		saim.WithIterations(80),
		saim.WithSweepsPerRun(150),
	}
	switch name {
	case "pt":
		opts = append(opts, saim.WithReplicas(8))
	case "decomp":
		opts = append(opts, saim.WithSubproblemSize(6), saim.WithIterations(20))
	}
	return opts
}

// TestCrossBackendOracle is the differential net: every registered
// backend, on every suite instance it accepts, must report results
// consistent with the brute-force oracle — costs never beat the proven
// optimum, assignments re-evaluate to the reported cost and feasibility,
// and proven-optimal results equal the optimum exactly.
func TestCrossBackendOracle(t *testing.T) {
	ctx := context.Background()
	for _, inst := range Suite(1) {
		compiled, err := inst.Model.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", inst.Name, err)
		}
		opt, _, feasExists := BruteForce(compiled)
		if !feasExists {
			t.Fatalf("%s: generator produced an infeasible instance", inst.Name)
		}
		for _, name := range saim.Solvers() {
			s, err := saim.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Accepts(compiled.Form()) {
				continue
			}
			res, err := s.Solve(ctx, compiled, oracleBudget(name)...)
			if err != nil {
				if extractionBackends[name] && strings.Contains(err.Error(), "knapsack") {
					// Structural mismatch: the combinatorial backends only
					// run integer knapsack forms.
					continue
				}
				t.Errorf("%s / %s: %v", inst.Name, name, err)
				continue
			}
			if res.Assignment == nil {
				// A heuristic may fail to find a feasible point; that is a
				// quality issue, not a soundness one. But it must say so.
				if !res.Infeasible() {
					t.Errorf("%s / %s: nil assignment but Infeasible() == false", inst.Name, name)
				}
				continue
			}
			cost, feasible, err := compiled.Evaluate(res.Assignment)
			if err != nil {
				t.Errorf("%s / %s: assignment does not evaluate: %v", inst.Name, name, err)
				continue
			}
			if !feasible {
				t.Errorf("%s / %s: reported assignment violates the constraints", inst.Name, name)
			}
			if math.Abs(cost-res.Cost) > 1e-6*(1+math.Abs(cost)) {
				t.Errorf("%s / %s: reported cost %v but assignment evaluates to %v", inst.Name, name, res.Cost, cost)
			}
			if res.Cost < opt-1e-6 {
				t.Errorf("%s / %s: cost %v beats the proven optimum %v", inst.Name, name, res.Cost, opt)
			}
			if name == "exact" && res.Optimal && math.Abs(res.Cost-opt) > 1e-6 {
				t.Errorf("%s / exact: claims optimality at %v, oracle says %v", inst.Name, res.Cost, opt)
			}
		}
	}
}

// TestDecomposedEqualsWholeSolve pins the decomposition meta-solver
// against whole-problem solves on instances small enough to do both, over
// Suite(1)–(3)'s twelve QUBOs and seeds 1–40. With exhaustive budgets the
// whole solve and a decomposition whose single block covers the model
// must land on the proven optimum on every pair. A genuinely decomposed
// solve, narrow tabu-rotated blocks, stops at block-local optima: it must
// never report a cost below the optimum, and it must reach it on at least
// 85% of the pairs (it reached 441 of 480; the binomial deviation at that
// rate is about 6 pairs).
//
// The pin covers the unconstrained form, where subproblem extraction is
// exact (the frozen complement is a constant of the block). Constrained
// models decompose a fixed-penalty surrogate with no λ adaptation, so
// cost parity with the adaptive whole solve is a quality aspiration, not
// an invariant; their soundness is enforced by TestCrossBackendOracle.
func TestDecomposedEqualsWholeSolve(t *testing.T) {
	ctx := context.Background()
	pairs, narrowHits := 0, 0
	for _, suite := range []uint64{1, 2, 3} {
		for _, inst := range Suite(suite) {
			if !strings.HasPrefix(inst.Name, "qubo") {
				continue
			}
			compiled, err := inst.Model.Compile()
			if err != nil {
				t.Fatalf("%s: compile: %v", inst.Name, err)
			}
			opt, _, _ := BruteForce(compiled)
			for seed := uint64(1); seed <= 40; seed++ {
				pairs++
				whole, err := saim.SolveModel(ctx, "saim", compiled,
					saim.WithSeed(seed), saim.WithIterations(150), saim.WithSweepsPerRun(200))
				if err != nil {
					t.Fatalf("%s: whole solve: %v", inst.Name, err)
				}
				wide, err := saim.SolveModel(ctx, "decomp", compiled,
					saim.WithSeed(seed), saim.WithSubproblemSize(compiled.N()),
					saim.WithIterations(60), saim.WithSweepsPerRun(200))
				if err != nil {
					t.Fatalf("%s: wide decomp: %v", inst.Name, err)
				}
				narrow, err := saim.SolveModel(ctx, "decomp", compiled,
					saim.WithSeed(seed), saim.WithSubproblemSize(5), saim.WithTabuTenure(1),
					saim.WithIterations(60), saim.WithSweepsPerRun(200))
				if err != nil {
					t.Fatalf("%s: narrow decomp: %v", inst.Name, err)
				}
				for kind, res := range map[string]*saim.Result{"whole": whole, "wide": wide} {
					if res.Infeasible() || math.Abs(res.Cost-opt) > 1e-9 {
						t.Errorf("%s seed %d / %s: cost %v, proven optimum %v", inst.Name, seed, kind, res.Cost, opt)
					}
				}
				switch {
				case narrow.Infeasible():
					t.Errorf("%s seed %d / narrow: no feasible assignment", inst.Name, seed)
				case narrow.Cost < opt-1e-9:
					t.Errorf("%s seed %d / narrow: cost %v below the proven optimum %v", inst.Name, seed, narrow.Cost, opt)
				case narrow.Cost <= opt+1e-9:
					narrowHits++
				}
			}
		}
	}
	t.Logf("narrow decomposition reached the optimum on %d of %d pairs", narrowHits, pairs)
	if pairs != 480 || narrowHits*100 < 85*pairs {
		t.Errorf("narrow decomposition reached the optimum on %d of %d pairs, want at least 85%% of 480", narrowHits, pairs)
	}
}

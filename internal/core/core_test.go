package core

import (
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// knapsackProblem builds a small knapsack: max Σ v_i x_i s.t. Σ w_i x_i ≤ cap,
// i.e. min −vᵀx. Returns the problem plus the exact optimum by enumeration.
func knapsackProblem(v, w []float64, capacity float64) (*Problem, float64) {
	n := len(v)
	sys := constraint.NewSystem(n)
	sys.Add(vecmat.Vec(w), constraint.LE, capacity)
	ext := sys.Extend(constraint.Binary)
	obj := ising.NewQUBO(ext.NTotal)
	for i := 0; i < n; i++ {
		obj.AddLinear(i, -v[i])
	}
	cost := func(x ising.Bits) float64 {
		s := 0.0
		for i, xi := range x {
			if xi != 0 {
				s -= v[i]
			}
		}
		return s
	}
	// Exact optimum by enumeration over decision bits.
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		weight, val := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				weight += w[i]
				val += v[i]
			}
		}
		if weight <= capacity && -val < best {
			best = -val
		}
	}
	return &Problem{Objective: obj, Ext: ext, Cost: cost}, best
}

// unconstrainedProblem builds a random QUBO with integer weights as a
// Problem with an empty constraint system (M = 0), the form unconstrained
// models take; Cost is the QUBO energy itself.
func unconstrainedProblem(n int, density float64, seed uint64) *Problem {
	src := rng.New(seed)
	obj := ising.NewQUBO(n)
	for i := 0; i < n; i++ {
		obj.AddLinear(i, float64(src.IntRange(-5, 5)))
		for j := i + 1; j < n; j++ {
			if src.Bool(density) {
				obj.AddQuad(i, j, float64(src.IntRange(-5, 5)))
			}
		}
	}
	return &Problem{
		Objective: obj,
		Ext:       constraint.NewSystem(n).Extend(constraint.Binary),
		Cost:      obj.Energy,
	}
}

func TestSolveFindsKnapsackOptimum(t *testing.T) {
	p, opt := knapsackProblem(
		[]float64{6, 5, 8, 9, 6, 7, 3}, []float64{2, 3, 6, 7, 5, 9, 4}, 15)
	res, err := Solve(p, Options{
		Iterations:   150,
		SweepsPerRun: 200,
		BetaMax:      10,
		Eta:          0.5,
		Alpha:        2,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible sample found")
	}
	if res.BestCost != opt {
		t.Fatalf("BestCost = %v, want %v", res.BestCost, opt)
	}
	// The best sample must actually be feasible.
	if !p.Ext.Orig.Feasible(res.Best, 1e-9) {
		t.Fatal("reported best is infeasible")
	}
	if got := p.Cost(res.Best); got != res.BestCost {
		t.Fatalf("BestCost %v inconsistent with Cost(Best) %v", res.BestCost, got)
	}
}

func TestSolveDeterministicGivenSeed(t *testing.T) {
	run := func() *Result {
		p, _ := knapsackProblem([]float64{3, 4, 5}, []float64{2, 3, 4}, 5)
		res, err := Solve(p, Options{Iterations: 30, SweepsPerRun: 50, Eta: 0.5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestCost != b.BestCost || a.FeasibleCount != b.FeasibleCount {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
	for i := range a.Lambda {
		if a.Lambda[i] != b.Lambda[i] {
			t.Fatal("λ trajectories diverged")
		}
	}
}

func TestSolveTraceShapes(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4}, []float64{2, 3}, 4)
	tr := &Trace{}
	const k = 25
	res, err := Solve(p, Options{Iterations: k, SweepsPerRun: 40, Eta: 0.3, Seed: 3, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Cost) != k || len(tr.Feasible) != k || len(tr.Lambda) != k || len(tr.Energy) != k {
		t.Fatalf("trace lengths: %d %d %d %d", len(tr.Cost), len(tr.Feasible), len(tr.Lambda), len(tr.Energy))
	}
	if len(tr.Lambda[0]) != p.Ext.M() {
		t.Fatalf("λ width = %d", len(tr.Lambda[0]))
	}
	// Feasible count in trace must match result.
	count := 0
	for _, f := range tr.Feasible {
		if f {
			count++
		}
	}
	if count != res.FeasibleCount {
		t.Fatalf("trace feasible %d vs result %d", count, res.FeasibleCount)
	}
}

func TestSolveUsesHeuristicPenalty(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4, 5, 6}, []float64{2, 3, 4, 5}, 7)
	p.Density = 0.5
	res, err := Solve(p, Options{Iterations: 5, SweepsPerRun: 20, Eta: 0.5, Alpha: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 0.5 * float64(p.Ext.NTotal)
	if res.P != want {
		t.Fatalf("P = %v, want α·d·N = %v", res.P, want)
	}
}

func TestSolveExplicitPenaltyOverrides(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4}, []float64{2, 3}, 4)
	res, err := Solve(p, Options{P: 7.5, Iterations: 3, SweepsPerRun: 10, Eta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 7.5 {
		t.Fatalf("P = %v, want 7.5", res.P)
	}
}

func TestSolveRejectsInvalidProblem(t *testing.T) {
	if _, err := Solve(&Problem{}, Options{}); err == nil {
		t.Fatal("Solve accepted empty problem")
	}
	// Dimension mismatch.
	sys := constraint.NewSystem(2)
	sys.Add(vecmat.Vec{1, 1}, constraint.LE, 1)
	ext := sys.Extend(constraint.Binary)
	p := &Problem{
		Objective: ising.NewQUBO(1),
		Ext:       ext,
		Cost:      func(ising.Bits) float64 { return 0 },
	}
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("Solve accepted mismatched dimensions")
	}
}

func TestFeasibleRatio(t *testing.T) {
	r := &Result{FeasibleCount: 25, Iterations: 50}
	if r.FeasibleRatio() != 50 {
		t.Fatalf("FeasibleRatio = %v", r.FeasibleRatio())
	}
	empty := &Result{}
	if empty.FeasibleRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
}

// exactMachine is a Machine that returns the true argmin by enumeration —
// it makes SAIM's outer loop deterministic so we can verify the λ dynamics
// in isolation from annealing noise. It ignores its randomness source.
type exactMachine struct {
	model *ising.Model
}

func (e *exactMachine) UpdateBiases(h vecmat.Vec) {
	copy(e.model.H, h)
}

func (e *exactMachine) Reseed(*rng.Source) {}

func (e *exactMachine) AnnealInto(dst ising.Spins, _ schedule.Schedule, _ int) {
	n := e.model.N()
	bestE := math.Inf(1)
	s := make(ising.Spins, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if en := e.model.Energy(s); en < bestE {
			bestE = en
			copy(dst, s)
		}
	}
}

// With an exact minimizer and small P < Pc, plain penalty minimization gets
// an infeasible lower bound, while SAIM's λ ascent must recover the true
// constrained optimum (the Fig. 2 story).
func TestExactMinimizerClosesGap(t *testing.T) {
	p, opt := knapsackProblem([]float64{6, 5, 8}, []float64{3, 2, 4}, 5)
	factory := func(model *ising.Model, _ *rng.Source) Machine {
		return &exactMachine{model: model}
	}
	// P small: with λ=0 the argmin is to take everything (infeasible).
	res, err := Solve(p, Options{
		P:          0.2,
		Iterations: 300,
		Eta:        0.2,
		Seed:       5,
		Factory:    factory,
		// SweepsPerRun irrelevant to the exact machine but must be set to
		// avoid the 1000-sweep default dominating the test runtime budget.
		SweepsPerRun: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("exact SAIM never found a feasible sample")
	}
	if res.BestCost != opt {
		t.Fatalf("BestCost = %v, want OPT %v", res.BestCost, opt)
	}
	// λ must have moved away from zero to close the gap.
	if res.Lambda.MaxAbs() == 0 {
		t.Fatal("λ never updated")
	}
}

// Verify the penalty-only ground state at the same small P is infeasible —
// i.e. the gap SAIM closed in the previous test actually existed.
func TestSmallPGroundStateInfeasibleWithoutLambda(t *testing.T) {
	p, _ := knapsackProblem([]float64{6, 5, 8}, []float64{3, 2, 4}, 5)
	factory := func(model *ising.Model, _ *rng.Source) Machine {
		return &exactMachine{model: model}
	}
	res, err := Solve(p, Options{
		P: 0.2, Iterations: 1, Eta: 0.2, Seed: 5, Factory: factory, SweepsPerRun: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration with λ=0: the measured sample is the penalty-only
	// argmin; for this instance it must be infeasible.
	if res.FeasibleCount != 0 {
		t.Fatal("expected infeasible penalty-only ground state at small P")
	}
}

func TestTotalSweepsAccounting(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4}, []float64{2, 3}, 4)
	res, err := Solve(p, Options{Iterations: 7, SweepsPerRun: 13, Eta: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSweeps != 7*13 {
		t.Fatalf("TotalSweeps = %d, want %d", res.TotalSweeps, 7*13)
	}
}

// SAIM must run unchanged on the sparse p-bit backend (the Machine
// interface contract), and — given the same seed — produce the same result
// as the dense backend since their trajectories coincide.
func TestSolveWithSparseFactory(t *testing.T) {
	p, opt := knapsackProblem([]float64{6, 5, 8, 9}, []float64{2, 3, 6, 7}, 10)
	sparseFactory := func(model *ising.Model, src *rng.Source) Machine {
		return pbit.NewSparse(model, src)
	}
	dense, err := Solve(p, Options{Iterations: 80, SweepsPerRun: 120, Eta: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Solve(p, Options{Iterations: 80, SweepsPerRun: 120, Eta: 0.5, Seed: 13,
		Factory: sparseFactory})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Best == nil {
		t.Fatal("sparse backend found nothing")
	}
	if dense.BestCost != sparse.BestCost || dense.FeasibleCount != sparse.FeasibleCount {
		t.Fatalf("backends disagree: dense %v/%d vs sparse %v/%d",
			dense.BestCost, dense.FeasibleCount, sparse.BestCost, sparse.FeasibleCount)
	}
	if sparse.BestCost != opt {
		t.Fatalf("sparse BestCost = %v, want %v", sparse.BestCost, opt)
	}
}

func TestEtaDecayConverges(t *testing.T) {
	p, opt := knapsackProblem([]float64{6, 5, 8}, []float64{3, 2, 4}, 5)
	factory := func(model *ising.Model, _ *rng.Source) Machine {
		return &exactMachine{model: model}
	}
	res, err := Solve(p, Options{
		P: 0.2, Iterations: 300, Eta: 0.4, EtaDecayPower: 0.5,
		Seed: 5, Factory: factory, SweepsPerRun: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.BestCost != opt {
		t.Fatalf("diminishing-step SAIM: best %v, want %v", res.BestCost, opt)
	}
}

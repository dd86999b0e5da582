package saim_test

import (
	"context"
	"fmt"

	saim "github.com/ising-machines/saim"
)

// The basic workflow: build a Model, pick a solver from the registry, read
// the assignment.
func ExampleSolveModel() {
	b := saim.NewBuilder(3)
	b.Linear(0, -6).Linear(1, -5).Linear(2, -8) // minimize −value
	b.ConstrainLE([]float64{2, 3, 4}, 5)        // weight budget
	model, err := b.Model()
	if err != nil {
		panic(err)
	}
	res, err := saim.SolveModel(context.Background(), "saim", model,
		saim.WithIterations(150), saim.WithSweepsPerRun(150),
		saim.WithEta(1), saim.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Assignment, res.Cost)
	// Output: [1 1 0] -11
}

// Every registered backend solves the same Model; the exact solver proves
// optimality on integer knapsack data.
func ExampleSolver() {
	b := saim.NewBuilder(3)
	b.Linear(0, -6).Linear(1, -5).Linear(2, -8)
	b.ConstrainLE([]float64{2, 3, 4}, 5)
	model, _ := b.Model()

	exact, err := saim.Get("exact")
	if err != nil {
		panic(err)
	}
	res, err := exact.Solve(context.Background(), model)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Assignment, res.Cost, res.Optimal)
	// Output: [1 1 0] -11 true
}

// A cancellable solve streams progress and returns its best-so-far result
// when the context is cancelled.
func ExampleWithProgress() {
	b := saim.NewBuilder(3)
	b.Linear(0, -6).Linear(1, -5).Linear(2, -8)
	b.ConstrainLE([]float64{2, 3, 4}, 5)
	model, _ := b.Model()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := saim.SolveModel(ctx, "saim", model,
		saim.WithIterations(1000000), // far more than needed …
		saim.WithSweepsPerRun(150), saim.WithEta(1), saim.WithSeed(1),
		saim.WithProgress(func(p saim.Progress) {
			if p.Iteration == 99 { // … so stop after 100 runs
				cancel()
			}
		}),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Stopped, res.Assignment, res.Cost)
	// Output: cancelled [1 1 0] -11
}

// Evaluate checks feasibility and objective of any assignment in the
// caller's original units.
func ExampleModel_Evaluate() {
	b := saim.NewBuilder(2)
	b.Linear(0, -3).Linear(1, -4)
	b.ConstrainLE([]float64{1, 1}, 1)
	model, _ := b.Model()
	cost, feasible, _ := model.Evaluate([]int{1, 1})
	fmt.Println(cost, feasible)
	// Output: -7 false
}

// Unconstrained QUBOs (like max-cut) build the same way — with no
// constraints the model reports FormUnconstrained and the "saim" solver
// runs plain multi-run annealing on the p-bit machine.
func ExampleModel_unconstrained() {
	// Two-variable toy: E = 2x₀x₁ − x₀ − x₁, minima at (1,0) and (0,1).
	b := saim.NewBuilder(2)
	b.Linear(0, -1).Linear(1, -1)
	b.Quadratic(0, 1, 2)
	model, _ := b.Model()
	res, err := saim.SolveModel(context.Background(), "saim", model,
		saim.WithIterations(30), saim.WithSweepsPerRun(100), saim.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(model.Form(), res.Assignment[0]+res.Assignment[1], res.Cost)
	// Output: unconstrained 1 -1
}

// Higher-order problems keep product terms intact — here a quadratic
// constraint x₀·x₁ = 1 forces a pair to be selected together. Any
// ConstrainPolyEQ (or objective Term of degree ≥ 3) marks the model
// high-order.
func ExampleBuilder_ConstrainPolyEQ() {
	b := saim.NewBuilder(3)
	b.Linear(2, -1)
	b.ConstrainPolyEQ(
		saim.Monomial{W: 1, Vars: []int{0, 1}}, // x₀x₁ = 1
		saim.Monomial{W: -1},
	)
	model, err := b.Model()
	if err != nil {
		panic(err)
	}
	res, err := saim.SolveModel(context.Background(), "saim", model,
		saim.WithPenalty(2), saim.WithEta(0.5),
		saim.WithIterations(100), saim.WithSweepsPerRun(100), saim.WithSeed(2),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(model.Form(), res.Assignment[0], res.Assignment[1], res.Cost)
	// Output: high-order 1 1 -1
}

// Model freezes a Builder into a validated Model; its form picks the solve
// path, here one linear inequality on three variables.
func ExampleBuilder_Model() {
	b := saim.NewBuilder(3)
	b.Linear(0, -6).Linear(1, -5).Linear(2, -8)
	b.ConstrainLE([]float64{2, 3, 4}, 5)
	model, err := b.Model()
	if err != nil {
		panic(err)
	}
	fmt.Println(model.Form(), model.N(), model.NumConstraints())
	res, err := saim.SolveModel(context.Background(), "saim", model,
		saim.WithIterations(150), saim.WithSweepsPerRun(150),
		saim.WithEta(1), saim.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Assignment, res.Cost)
	// Output:
	// constrained 3 1
	// [1 1 0] -11
}

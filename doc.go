// Package saim is a self-adaptive Ising machine (SAIM) for constrained
// binary optimization, reproducing "Self-Adaptive Ising Machines for
// Constrained Optimization" (Delacour, DATE 2025; arXiv:2501.04971).
//
// # Background
//
// Ising machines natively minimize unconstrained quadratic energies. The
// standard way to impose constraints — adding a quadratic penalty
// P·‖g(x)‖² — requires a penalty weight above an instance-dependent
// critical value Pc, and finding that weight costs a tuning phase that
// dominates time-to-solution. SAIM instead keeps a small fixed P and adds
// a Lagrange relaxation λᵀg(x) whose multipliers adapt after every
// annealing run:
//
//	λ ← λ + η·g(x̄),
//
// a surrogate-subgradient ascent on the dual problem that reshapes the
// energy landscape until constrained optima become ground states.
//
// # The unified Model / Solver API
//
// One Builder produces a Model of any form — unconstrained QUBO, linearly
// constrained (the SAIM form), or high-order polynomial — and a registry
// of Solver backends runs it under a context:
//
//	b := saim.NewBuilder(3)
//	b.Linear(0, -6).Linear(1, -5).Linear(2, -8)      // maximize 6x₀+5x₁+8x₂
//	b.ConstrainLE([]float64{2, 3, 4}, 5)             // weight limit
//	model, err := b.Model()
//	if err != nil { ... }
//	res, err := saim.SolveModel(ctx, "saim", model,
//		saim.WithIterations(200),
//		saim.WithProgress(func(p saim.Progress) { ... }),
//	)
//
// Registered backends (see Solvers): "saim" — the paper's Algorithm 1 (and
// the only backend accepting every model form); "penalty" — the classical
// fixed-P baseline; "pt" — parallel tempering (the PT-DA stand-in); "ga" —
// the Chu–Beasley genetic algorithm generalized to quadratic knapsacks;
// "greedy" — constructive density heuristics; "exact" — certified branch
// and bound; "decomp" — qbsolv-style subproblem decomposition that runs
// any of the other backends on extracted subproblems (WithSubproblemSize,
// WithInnerSolver, WithRounds, WithTabuTenure; see also the decompose
// package for instances beyond the dense-matrix limit); "race" — a
// meta-solver running several backends concurrently on the same model
// (WithRacers) and cancelling the rest when the first reaches
// WithTargetCost. Every backend honors context cancellation by returning
// its best-so-far result promptly (Result.Stopped == StopCancelled),
// enforces WithTimeLimit at the same cadence (Stopped == StopTimeLimit),
// streams Progress snapshots via WithProgress, and supports early
// stopping via WithTargetCost and WithPatience. Custom backends register
// with Register.
//
// Package service builds a concurrent solve service on this registry — a
// job manager with a bounded worker pool, per-job deadlines, result
// deduplication keyed by model and options fingerprints, and progress
// fan-out — and cmd/saimserve exposes it over HTTP/JSON with SSE progress
// streaming.
//
// One annealing engine serves the quadratic forms: "saim" runs
// constrained and unconstrained models on it (an unconstrained model is a
// problem with no constraint rows), and "penalty" is the same engine with
// the multiplier step η pinned to 0. WithReplicas merges independent
// restarts for both quadratic forms.
//
// # The declarative layer
//
// Package model is the recommended front door for application code: named,
// indexed variable families, algebraic expressions (Dot, Sum, Times),
// Minimize/Maximize, named constraints in all three senses (LE/EQ/GE), and
// name-aware solution extraction with a per-constraint slack report — all
// compiling losslessly onto this package's Builder. Package problems is a
// catalog of ready-made workloads (knapsack, max-cut, coloring,
// assignment, scheduling, portfolio, set cover) built on it, each pairing
// a declarative model with a typed decoder. WithInitial warm-starts the
// saim, penalty, pt, and ga backends from a known-good assignment: saim
// and penalty keep it as their best-so-far seed, pt and ga also search
// from it.
//
// The module also ships the paper's full benchmark suites (quadratic and
// multidimensional knapsack problems), the penalty-method, parallel-
// tempering and genetic-algorithm baselines, exact branch-and-bound
// reference solvers, and a harness regenerating every table and figure of
// the paper's evaluation (cmd/saimexp).
//
// # Static analysis
//
// cmd/saimvet (built on internal/analysis) lints the module's own
// cross-cutting invariants at compile time: options-fingerprint
// completeness, deadline checks in solver work loops, allocation-free
// //saim:hotpath kernels, and seeded-randomness discipline. Run it
// standalone (go run ./cmd/saimvet ./...) or via go vet -vettool; see
// DESIGN.md §8.
package saim

package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/pbit"
)

// The engine contract: once a solve is warmed up (machine built, scratch
// sized, best buffer allocated on the first improvement), additional SAIM
// iterations must not touch the heap. The test measures whole solves at
// two iteration budgets — every per-solve allocation appears in both, so
// any difference is per-iteration garbage.
func TestSolveSteadyStateZeroAllocs(t *testing.T) {
	p, _ := knapsackProblem(
		[]float64{6, 5, 8, 9, 6, 7, 3}, []float64{2, 3, 6, 7, 5, 9, 4}, 15)
	measure := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Solve(p, Options{
				Iterations: iters, SweepsPerRun: 25, Eta: 0.5, Seed: 7,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(5)
	big := measure(45)
	if big > base {
		t.Fatalf("steady-state SAIM iterations allocate: %v allocs/solve at 5 iterations vs %v at 45 (+%v over 40 extra iterations)",
			base, big, big-base)
	}
}

// Both kernels must hold the zero-allocation property, since auto-selection
// may hand either to the engine.
func TestSolveSteadyStateZeroAllocsSparse(t *testing.T) {
	p, _ := knapsackProblem(
		[]float64{6, 5, 8, 9, 6, 7, 3}, []float64{2, 3, 6, 7, 5, 9, 4}, 15)
	measure := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Solve(p, Options{
				Iterations: iters, SweepsPerRun: 25, Eta: 0.5, Seed: 7,
				Machine: MachineSparse,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if base, big := measure(5), measure(45); big > base {
		t.Fatalf("CSR solve allocates in steady state: %v vs %v allocs/solve", base, big)
	}
}

func TestMachineKindResolve(t *testing.T) {
	denseModel := ising.NewModel(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			denseModel.J.Set(i, j, 1)
		}
	}
	sparseModel := ising.NewModel(4)
	sparseModel.J.Set(0, 1, 1)

	if k := MachineAuto.Resolve(denseModel); k != MachineDense {
		t.Fatalf("auto on dense model resolved to %v", k)
	}
	if k := MachineAuto.Resolve(sparseModel); k != MachineSparse {
		t.Fatalf("auto on sparse model resolved to %v", k)
	}
	if MachineDense.Resolve(sparseModel) != MachineDense ||
		MachineSparse.Resolve(denseModel) != MachineSparse {
		t.Fatal("forced kinds must resolve to themselves")
	}
	if MachineAuto.String() != "auto" || MachineDense.String() != "dense" || MachineSparse.String() != "sparse" {
		t.Fatal("MachineKind strings wrong")
	}
}

// Forcing either kernel must not change the solve outcome: the machines
// are trajectory-identical for the same seed.
func TestSolveMachineKindsAgree(t *testing.T) {
	p, _ := knapsackProblem([]float64{6, 5, 8, 9}, []float64{2, 3, 6, 7}, 10)
	run := func(k MachineKind) *Result {
		res, err := Solve(p, Options{
			Iterations: 40, SweepsPerRun: 60, Eta: 0.5, Seed: 13, Machine: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	auto, dense, sparse := run(MachineAuto), run(MachineDense), run(MachineSparse)
	if dense.BestCost != sparse.BestCost || dense.FeasibleCount != sparse.FeasibleCount {
		t.Fatalf("kernels disagree: dense %v/%d vs sparse %v/%d",
			dense.BestCost, dense.FeasibleCount, sparse.BestCost, sparse.FeasibleCount)
	}
	if auto.BestCost != dense.BestCost || auto.FeasibleCount != dense.FeasibleCount {
		t.Fatalf("auto kernel diverged: %v/%d vs %v/%d",
			auto.BestCost, auto.FeasibleCount, dense.BestCost, dense.FeasibleCount)
	}
	if !slices.Equal(auto.Lambda, dense.Lambda) {
		t.Fatalf("auto λ %v vs dense %v", auto.Lambda, dense.Lambda)
	}
}

// A reseeded, reused machine must reproduce exactly what a fresh build
// produces — the determinism contract the replica pool rests on.
func TestEngineReuseDeterminism(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4, 5}, []float64{2, 3, 4}, 5)
	pr, err := compile(p, Options{Iterations: 20, SweepsPerRun: 40, Eta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(e *engine, seed uint64) *Result {
		res := make([]*Result, 1)
		e.solve(t.Context(), []uint64{seed}, res, nil, nil, nil)
		return res[0]
	}
	// One engine runs seed A then seed B (machine reused + reseeded).
	eng := pr.newEngine(1, 1)
	solve(eng, 101)
	reused := solve(eng, 202)
	// A fresh engine runs seed B directly.
	fresh := solve(pr.newEngine(1, 1), 202)
	if reused.BestCost != fresh.BestCost || reused.FeasibleCount != fresh.FeasibleCount {
		t.Fatalf("reused engine diverged from fresh: %+v vs %+v", reused, fresh)
	}
	for i := range reused.Lambda {
		if reused.Lambda[i] != fresh.Lambda[i] {
			t.Fatal("λ trajectories diverged between reused and fresh engines")
		}
	}
}

// The packed engine holds the same contract, and its lane windows must not
// break it: handing each run to the window goroutines may not allocate.
// testing.AllocsPerRun forces GOMAXPROCS 1, which never starts a window
// goroutine, so this counts mallocs across whole 64-replica solves under
// GOMAXPROCS ≥ 2 (two windows or more). Each solve starts its window
// goroutines once, and the runtime may or may not allocate a goroutine or
// a wait record for them, so two solves differ by a few mallocs however
// long they run. The pin is therefore "no per-iteration allocation": one
// malloc per run would add 200 over the extra iterations, and the jitter
// stays far below a tenth of that. Other goroutines' mallocs land in the
// same counter, so each budget keeps its quietest of three solves.
func TestPackedSolveSteadyStateZeroAllocs(t *testing.T) {
	const small, large = 5, 205
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	p, _ := knapsackProblem(
		[]float64{6, 5, 8, 9, 6, 7, 3}, []float64{2, 3, 6, 7, 5, 9, 4}, 15)
	solve := func(iters int) {
		if _, err := SolveParallel(p, Options{
			Iterations: iters, SweepsPerRun: 25, Eta: 0.5, Seed: 7, Packed: PackedOn,
		}, pbit.Lanes); err != nil {
			t.Fatal(err)
		}
	}
	solve(small) // builds lazily-initialized runtime and engine state
	measure := func(iters int) uint64 {
		best := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&before)
			solve(iters)
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	base, big := measure(small), measure(large)
	if big > base && big-base >= (large-small)/10 {
		t.Fatalf("packed SAIM iterations allocate: %d mallocs/solve at %d iterations vs %d at %d (+%d over %d extra iterations)",
			base, small, big, large, big-base, large-small)
	}
}

package core

import (
	"math"
	"sync"
	"testing"
)

func TestSolveParallelMatchesSingleSemantics(t *testing.T) {
	p, opt := knapsackProblem([]float64{6, 5, 8, 9}, []float64{2, 3, 6, 7}, 10)
	res, err := SolveParallel(p, Options{
		Iterations: 60, SweepsPerRun: 100, Eta: 0.5, Seed: 3,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible solution across replicas")
	}
	if res.BestCost != opt {
		t.Fatalf("BestCost = %v, want %v", res.BestCost, opt)
	}
	if res.Iterations != 4*60 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
	if res.TotalSweeps != 4*60*100 {
		t.Fatalf("TotalSweeps = %d", res.TotalSweeps)
	}
	if !p.Ext.Orig.Feasible(res.Best, 1e-9) {
		t.Fatal("merged best infeasible")
	}
}

func TestSolveParallelDeterministic(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4, 5}, []float64{2, 3, 4}, 5)
	run := func() *Result {
		r, err := SolveParallel(p, Options{Iterations: 25, SweepsPerRun: 60, Eta: 0.5, Seed: 9}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.BestCost != b.BestCost || a.FeasibleCount != b.FeasibleCount {
		t.Fatal("same seed, different merged results")
	}
}

func TestSolveParallelBeatsOrMatchesSingle(t *testing.T) {
	p, _ := knapsackProblem(
		[]float64{6, 5, 8, 9, 6, 7, 3}, []float64{2, 3, 6, 7, 5, 9, 4}, 15)
	single, err := Solve(p, Options{Iterations: 40, SweepsPerRun: 100, Eta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SolveParallel(p, Options{Iterations: 40, SweepsPerRun: 100, Eta: 0.5, Seed: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Best == nil {
		t.Fatal("parallel found nothing")
	}
	if single.Best != nil && multi.BestCost > single.BestCost {
		t.Fatalf("4 replicas (%v) worse than replica-compatible single (%v)", multi.BestCost, single.BestCost)
	}
}

func TestSolveParallelValidation(t *testing.T) {
	p, _ := knapsackProblem([]float64{1}, []float64{1}, 1)
	if _, err := SolveParallel(p, Options{}, 0); err == nil {
		t.Fatal("accepted zero replicas")
	}
	if _, err := SolveParallel(&Problem{}, Options{}, 2); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

func TestSolveParallelKeepsFirstTrace(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4}, []float64{2, 3}, 4)
	tr := &Trace{}
	if _, err := SolveParallel(p, Options{
		Iterations: 10, SweepsPerRun: 20, Eta: 0.5, Seed: 2, Trace: tr,
	}, 3); err != nil {
		t.Fatal(err)
	}
	if len(tr.Cost) != 10 {
		t.Fatalf("trace length %d, want one replica's 10", len(tr.Cost))
	}
}

// Replicas beyond the first used to silently drop progress; now every
// replica streams through a thread-safe aggregator reporting fleet totals.
func TestSolveParallelProgressAggregates(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4, 5}, []float64{2, 3, 4}, 5)
	var mu sync.Mutex
	count := 0
	var last ProgressInfo
	_, err := SolveParallel(p, Options{
		Iterations: 10, SweepsPerRun: 10, Eta: 0.5, Seed: 4,
		Progress: func(pi ProgressInfo) {
			mu.Lock()
			count++
			if pi.Samples > last.Samples {
				last = pi
			}
			mu.Unlock()
		},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if count != 3*10 {
		t.Fatalf("progress fired %d times, want one per replica iteration (30)", count)
	}
	if last.Samples != 30 {
		t.Fatalf("final aggregate Samples = %d, want 30", last.Samples)
	}
	if last.Sweeps != 3*10*10 {
		t.Fatalf("final aggregate Sweeps = %d, want 300", last.Sweeps)
	}
	if last.Total != 30 {
		t.Fatalf("aggregate Total = %d, want replicas×iterations", last.Total)
	}
}

// The pooled solve must reproduce exactly what goroutine-per-replica
// produced: per-replica results equal standalone solves with the replica
// seed, independent of worker count or scheduling.
func TestSolveParallelMatchesStandaloneReplicas(t *testing.T) {
	p, _ := knapsackProblem([]float64{6, 5, 8, 9, 6}, []float64{2, 3, 6, 7, 5}, 12)
	o := Options{Iterations: 20, SweepsPerRun: 50, Eta: 0.5, Seed: 31}
	const replicas = 4
	merged, err := SolveParallel(p, o, replicas)
	if err != nil {
		t.Fatal(err)
	}
	bestCost := math.Inf(1)
	feasible, sweeps := 0, int64(0)
	for r := 0; r < replicas; r++ {
		ro := o
		ro.Seed = replicaSeed(o.Seed, r)
		res, err := Solve(p, ro)
		if err != nil {
			t.Fatal(err)
		}
		feasible += res.FeasibleCount
		sweeps += res.TotalSweeps
		if res.BestCost < bestCost {
			bestCost = res.BestCost
		}
	}
	if merged.BestCost != bestCost || merged.FeasibleCount != feasible || merged.TotalSweeps != sweeps {
		t.Fatalf("pool merge %v/%d/%d, standalone replicas %v/%d/%d",
			merged.BestCost, merged.FeasibleCount, merged.TotalSweeps, bestCost, feasible, sweeps)
	}
}

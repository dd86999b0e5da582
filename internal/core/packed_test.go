package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/rng"
)

// equalResults compares every deterministic field of two Results.
func equalResults(t *testing.T, r int, got, want *Result) {
	t.Helper()
	if got.BestCost != want.BestCost {
		t.Errorf("replica %d: BestCost %v, want %v", r, got.BestCost, want.BestCost)
	}
	if got.FeasibleCount != want.FeasibleCount {
		t.Errorf("replica %d: FeasibleCount %d, want %d", r, got.FeasibleCount, want.FeasibleCount)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("replica %d: Iterations %d, want %d", r, got.Iterations, want.Iterations)
	}
	if got.TotalSweeps != want.TotalSweeps {
		t.Errorf("replica %d: TotalSweeps %d, want %d", r, got.TotalSweeps, want.TotalSweeps)
	}
	if got.Stopped != want.Stopped {
		t.Errorf("replica %d: Stopped %v, want %v", r, got.Stopped, want.Stopped)
	}
	if len(got.Lambda) != len(want.Lambda) {
		t.Fatalf("replica %d: Lambda length %d, want %d", r, len(got.Lambda), len(want.Lambda))
	}
	for i := range got.Lambda {
		if got.Lambda[i] != want.Lambda[i] {
			t.Errorf("replica %d: Lambda[%d] = %v, want %v", r, i, got.Lambda[i], want.Lambda[i])
		}
	}
	if (got.Best == nil) != (want.Best == nil) {
		t.Fatalf("replica %d: Best nil-ness differs (packed %v, scalar %v)", r, got.Best == nil, want.Best == nil)
	}
	for i := range got.Best {
		if got.Best[i] != want.Best[i] {
			t.Errorf("replica %d: Best[%d] = %d, want %d", r, i, got.Best[i], want.Best[i])
		}
	}
}

// The engine-level pin of the packed path: every lane of a packed engine
// must reproduce, bit-for-bit, the Result a one-lane engine on the scalar
// p-bit machine produces for the same replica seed — including lanes
// frozen early by patience while their siblings keep sweeping — at every
// lane-window count (1, the even split, the uneven 3- and 5-window
// splits, one octet per window). The unconstrained input (M = 0, a
// sparse max-cut-like QUBO) pins the lifted replica path of unconstrained
// models.
func TestSolveParallelPackedMatchesScalarReplicas(t *testing.T) {
	knap, _ := knapsackProblem([]float64{6, 5, 8, 9, 6}, []float64{2, 3, 6, 7, 5}, 12)
	for _, c := range []struct {
		name string
		p    *Problem
		kind MachineKind
	}{
		{"dense", knap, MachineDense},
		{"sparse", knap, MachineSparse},
		{"unconstrained", unconstrainedProblem(24, 0.15, 5), MachineAuto},
	} {
		p, kind := c.p, c.kind
		t.Run(c.name, func(t *testing.T) {
			o := Options{
				Iterations: 12, SweepsPerRun: 40, Eta: 0.5, Seed: 91,
				Patience: 4, Machine: kind,
			}
			pr, err := compile(p, o)
			if err != nil {
				t.Fatal(err)
			}
			seeds := make([]uint64, pbit.Lanes)
			for r := range seeds {
				seeds[r] = replicaSeed(o.Seed, r)
			}
			eng := pr.newEngine(1, 1)
			want := make([]*Result, pbit.Lanes)
			wantTraces := make([]*Trace, pbit.Lanes)
			sawEarlyStop := false
			for r := range want {
				wantTraces[r] = &Trace{}
				eng.solve(context.Background(), seeds[r:r+1], want[r:r+1], wantTraces[r:r+1], nil, nil)
				sawEarlyStop = sawEarlyStop || want[r].Stopped == StopPatience
			}
			if !sawEarlyStop {
				t.Error("no replica stopped on patience; the done-lane freezing path went unexercised — lower Patience")
			}

			for _, windows := range []int{1, 2, 3, 5, 8} {
				pe := pr.newEngine(pbit.Lanes, windows)
				traces := make([]*Trace, pbit.Lanes)
				for r := range traces {
					traces[r] = &Trace{}
				}
				got := make([]*Result, pbit.Lanes)
				pe.solve(context.Background(), seeds, got, traces, nil, nil)
				pe.kernel.Close()
				for r, res := range got {
					equalResults(t, r, res, want[r])
					tr := wantTraces[r]
					if len(traces[r].Cost) != len(tr.Cost) {
						t.Fatalf("%d windows, replica %d: trace length %d, want %d", windows, r, len(traces[r].Cost), len(tr.Cost))
					}
					for k := range tr.Cost {
						if traces[r].Cost[k] != tr.Cost[k] || traces[r].Energy[k] != tr.Energy[k] {
							t.Fatalf("%d windows, replica %d: trace diverges at iteration %d", windows, r, k)
						}
					}
				}
			}
		})
	}
}

// The public-API pin: merged results are identical whether the pool packs
// or runs scalar replicas, including a non-multiple-of-64 fleet whose
// remainder rides the scalar path next to one packed group.
func TestSolveParallelPackedModeEquivalence(t *testing.T) {
	p, _ := knapsackProblem([]float64{6, 5, 8, 9}, []float64{2, 3, 6, 7}, 10)
	base := Options{Iterations: 6, SweepsPerRun: 30, Eta: 0.5, Seed: 17}
	run := func(mode PackedMode) *Result {
		o := base
		o.Packed = mode
		res, err := SolveParallel(p, o, 70)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(PackedOff), run(PackedOn)
	if on.BestCost != off.BestCost || on.FeasibleCount != off.FeasibleCount ||
		on.Iterations != off.Iterations || on.TotalSweeps != off.TotalSweeps ||
		!slices.Equal(on.Lambda, off.Lambda) {
		t.Errorf("packed merged %v/%d/%d/%d/%v, scalar %v/%d/%d/%d/%v",
			on.BestCost, on.FeasibleCount, on.Iterations, on.TotalSweeps, on.Lambda,
			off.BestCost, off.FeasibleCount, off.Iterations, off.TotalSweeps, off.Lambda)
	}
}

// Warm starts must flow through the packed path unchanged: the assignment
// seeds every lane's best-so-far.
func TestSolveParallelPackedWarmStartEquivalence(t *testing.T) {
	p, _ := knapsackProblem([]float64{6, 5, 8, 9}, []float64{2, 3, 6, 7}, 10)
	base := Options{
		Iterations: 5, SweepsPerRun: 25, Eta: 0.5, Seed: 23,
		Initial: ising.Bits{1, 0, 0, 0},
	}
	run := func(mode PackedMode) *Result {
		o := base
		o.Packed = mode
		res, err := SolveParallel(p, o, pbit.Lanes)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(PackedOff), run(PackedOn)
	if on.BestCost != off.BestCost || on.FeasibleCount != off.FeasibleCount ||
		on.TotalSweeps != off.TotalSweeps || !slices.Equal(on.Lambda, off.Lambda) {
		t.Errorf("packed warm start diverged from scalar: %v/%d/%d vs %v/%d/%d",
			on.BestCost, on.FeasibleCount, on.TotalSweeps,
			off.BestCost, off.FeasibleCount, off.TotalSweeps)
	}
	// The warm start is feasible, so no result may be worse than it.
	warmCost := p.Cost(base.Initial)
	if on.BestCost > warmCost {
		t.Errorf("packed warm-started BestCost %v worse than seed %v", on.BestCost, warmCost)
	}
}

// Progress and traces must stream from packed lanes exactly as from
// scalar replicas: one aggregated callback per lane iteration, and the
// winning lane's full trajectory in the caller's trace.
func TestSolveParallelPackedProgressAndTrace(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4, 5}, []float64{2, 3, 4}, 5)
	var mu sync.Mutex
	count := 0
	var last ProgressInfo
	tr := &Trace{}
	_, err := SolveParallel(p, Options{
		Iterations: 5, SweepsPerRun: 10, Eta: 0.5, Seed: 4, Packed: PackedOn,
		Trace: tr,
		Progress: func(pi ProgressInfo) {
			mu.Lock()
			count++
			if pi.Samples > last.Samples {
				last = pi
			}
			mu.Unlock()
		},
	}, pbit.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	if count != pbit.Lanes*5 {
		t.Errorf("progress fired %d times, want one per lane iteration (%d)", count, pbit.Lanes*5)
	}
	if last.Samples != pbit.Lanes*5 {
		t.Errorf("final aggregate Samples = %d, want %d", last.Samples, pbit.Lanes*5)
	}
	if last.Sweeps != int64(pbit.Lanes*5*10) {
		t.Errorf("final aggregate Sweeps = %d, want %d", last.Sweeps, pbit.Lanes*5*10)
	}
	if len(tr.Cost) != 5 {
		t.Errorf("trace length %d, want the winning lane's 5", len(tr.Cost))
	}
}

// Cancellation mid-solve must freeze packed lanes at the next run
// boundary with StopCancelled, exactly like scalar replicas.
func TestSolveParallelPackedCancellation(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4, 5}, []float64{2, 3, 4}, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveParallelContext(ctx, p, Options{
		Iterations: 50, SweepsPerRun: 20, Eta: 0.5, Seed: 6, Packed: PackedOn,
	}, pbit.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopCancelled {
		t.Errorf("Stopped = %v, want StopCancelled", res.Stopped)
	}
}

// A custom factory packs nothing: every replica of its pool, 64 or not,
// is a one-lane task on an engine that builds the factory's machine once
// and reseeds it per replica. The exact minimizer ignores its seed, so
// every replica retraces the single solve, whose λ ascent reaches the
// proven optimum, at any worker count.
func TestSolveParallelCustomFactoryReplicas(t *testing.T) {
	p, opt := knapsackProblem([]float64{6, 5, 8}, []float64{3, 2, 4}, 5)
	var built atomic.Int32
	opts := Options{
		P: 0.2, Iterations: 300, Eta: 0.2, Seed: 5, SweepsPerRun: 1,
		Factory: func(model *ising.Model, _ *rng.Source) Machine {
			built.Add(1)
			return &exactMachine{model: model}
		},
	}
	single, err := Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	const replicas = pbit.Lanes + 6
	for _, procs := range []int{1, 4} {
		built.Store(0)
		prev := runtime.GOMAXPROCS(procs)
		res, err := SolveParallel(p, opts, replicas)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil || res.BestCost != opt {
			t.Fatalf("GOMAXPROCS %d: merged BestCost %v, want the proven optimum %v", procs, res.BestCost, opt)
		}
		if res.Iterations != replicas*single.Iterations || res.FeasibleCount != replicas*single.FeasibleCount ||
			!slices.Equal(res.Lambda, single.Lambda) {
			t.Errorf("GOMAXPROCS %d: merged %d iterations, %d feasible, λ %v; want %d replicas of %d, %d, %v", procs,
				res.Iterations, res.FeasibleCount, res.Lambda, replicas, single.Iterations, single.FeasibleCount, single.Lambda)
		}
		if n := built.Load(); n < 1 || n > int32(procs) {
			t.Errorf("GOMAXPROCS %d: the factory built %d machines, want one per worker", procs, n)
		}
	}
}

// Satellite: a panicking progress callback must not leave the aggregator
// mutex held — every later report from any worker would deadlock.
func TestProgressAggregatorPanickingCallback(t *testing.T) {
	calls := 0
	agg := NewProgressAggregator(func(pi ProgressInfo) {
		calls++
		if calls == 1 {
			panic("observer bug")
		}
	}, 2, 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("callback panic did not propagate")
			}
		}()
		agg.Callback(0)(ProgressInfo{Samples: 1})
	}()
	done := make(chan struct{})
	go func() {
		agg.Callback(1)(ProgressInfo{Samples: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aggregator left locked after a callback panic")
	}
	agg.mu.Lock()
	corrupted := math.IsInf(agg.agg.BestCost, -1)
	agg.mu.Unlock()
	if corrupted {
		t.Fatal("aggregator state corrupted")
	}
}

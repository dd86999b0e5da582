package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/ising-machines/saim/internal/pbit"
)

// replicaSeed decorrelates replica r deterministically from the base seed.
func replicaSeed(base uint64, r int) uint64 {
	return base ^ (uint64(r+1) * 0x9e3779b97f4a7c15)
}

// ProgressAggregator merges the per-iteration streams of a fleet of
// concurrent workers into one thread-safe callback. Each worker reports
// cumulative values for its own stream; the aggregator maintains
// fleet-wide running totals (best cost, feasible/sample counts, sweeps)
// incrementally — O(1) per event — so a dashboard sees monotone global
// progress instead of interleaved per-worker counters. The replica pool
// and the decomposition meta-solver's round workers share this path.
type ProgressAggregator struct {
	mu  sync.Mutex
	f   func(ProgressInfo) // immutable after construction
	agg ProgressInfo       // guarded by mu
	// Last cumulative snapshot per replica, subtracted before adding the
	// new one (per-solve best costs are monotone, so the fleet min needs
	// no per-replica memory). All three are guarded by mu.
	feasible []int   // guarded by mu
	samples  []int   // guarded by mu
	sweeps   []int64 // guarded by mu
	// norm0 is replica 0's latest ‖λ‖. Multiplier norms from different
	// replicas are unrelated trajectories, so the aggregate streams one
	// coherent trajectory (replica 0's, as before pooling) rather than a
	// last-writer-wins sawtooth. guarded by mu
	norm0 float64
}

// NewProgressAggregator returns an aggregator over `workers` cumulative
// streams relaying merged totals to f; totalIters seeds the Total field of
// every relayed snapshot (use 0 when the total is unknown up front).
func NewProgressAggregator(f func(ProgressInfo), workers, totalIters int) *ProgressAggregator {
	return &ProgressAggregator{
		f:        f,
		agg:      ProgressInfo{Total: totalIters, BestCost: math.Inf(1)},
		feasible: make([]int, workers),
		samples:  make([]int, workers),
		sweeps:   make([]int64, workers),
	}
}

// Callback returns the progress function handed to worker r's stream. It
// is safe for concurrent use across workers; a nil aggregator returns nil.
func (a *ProgressAggregator) Callback(r int) func(ProgressInfo) {
	if a == nil {
		return nil
	}
	return func(p ProgressInfo) {
		a.mu.Lock()
		// Deferred so a panicking user callback cannot leave the aggregator
		// locked — that would silently deadlock every other worker's next
		// progress report while the panic unwinds one goroutine.
		defer a.mu.Unlock()
		// Per-replica streams are cumulative and per-solve best costs are
		// monotone, so replacing replica r's deltas keeps exact totals and
		// the running min stays correct without a rescan.
		a.agg.FeasibleCount += p.FeasibleCount - a.feasible[r]
		a.agg.Samples += p.Samples - a.samples[r]
		a.agg.Sweeps += p.Sweeps - a.sweeps[r]
		a.feasible[r], a.samples[r], a.sweeps[r] = p.FeasibleCount, p.Samples, p.Sweeps
		if p.BestCost < a.agg.BestCost {
			a.agg.BestCost = p.BestCost
		}
		a.agg.Iteration = a.agg.Samples - 1
		if r == 0 {
			a.norm0 = p.LambdaNorm
		}
		a.agg.LambdaNorm = a.norm0
		// Invoke under the lock so user callbacks stay serialized (the
		// WithProgress contract) even with many workers reporting. The
		// deferred unlock above keeps a panicking callback from wedging
		// the other workers, which is what makes this hold-across-call
		// safe enough to exempt.
		a.f(a.agg) //saim:lockok WithProgress serializes user callbacks by contract; the unlock is deferred so even a panic releases mu
	}
}

// SolveParallel runs `replicas` independent SAIM solves concurrently on a
// fixed worker pool with decorrelated seeds, and merges their results.
// Independent restarts are the natural parallelization of Algorithm 1 —
// the λ recursion inside one solve is sequential, but replicas explore
// different multiplier trajectories, which both exploits hardware
// parallelism and hedges against a bad λ path.
//
// The merged result reports the best feasible solution across replicas,
// aggregate feasibility statistics, the total sweep budget, and the λ
// vector of the replica that produced the winner.
func SolveParallel(p *Problem, opts Options, replicas int) (*Result, error) {
	return SolveParallelContext(context.Background(), p, opts, replicas)
}

// SolveParallelContext is SolveParallel under a context: cancellation stops
// every replica at its next annealing-run boundary and the merged
// best-so-far result is returned with Stopped == StopCancelled.
//
// The energy model is compiled once and shared; each of the
// min(GOMAXPROCS, tasks) workers owns long-lived engines — kernel,
// multiplier state, and scratch — reused (reseeded) across every task it
// picks up, so per-replica setup is O(N) instead of an O(N²) model +
// machine rebuild. A task is a packed 64-lane group or one replica on a
// one-lane engine; both run the same engine loop. When there are fewer
// tasks than Ps, each group's lanes anneal in several concurrent lane
// windows, so a lone group on an otherwise idle machine still uses every
// core. Progress callbacks from all replicas are merged thread-safely into
// fleet-wide totals, and the winning replica's trajectory is copied into
// Options.Trace when one is supplied.
func SolveParallelContext(ctx context.Context, p *Problem, opts Options, replicas int) (*Result, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("core: SolveParallel requires replicas > 0, got %d", replicas)
	}
	pr, err := compile(p, opts)
	if err != nil {
		return nil, err
	}

	// A replica that reaches the target cost cancels its siblings so the
	// early stop has wall-clock effect in parallel mode too.
	ctx, stopSiblings := context.WithCancel(ctx)
	defer stopSiblings()

	var agg *ProgressAggregator
	if pr.o.Progress != nil {
		agg = NewProgressAggregator(pr.o.Progress, replicas, pr.o.Iterations*replicas)
	}
	results := make([]*Result, replicas)
	// Each replica records a private trace (race-free), but losers are
	// dropped as soon as they are beaten so at most one full trajectory
	// per in-flight worker is ever retained. The kept trace replicates the
	// merge's winner selection: lowest replica index among minimal cost.
	var traceMu sync.Mutex
	traceWinner, winnerCost := -1, math.Inf(1)
	var winnerTrace *Trace
	keepIfWinner := func(r int, cost float64, tr *Trace) {
		traceMu.Lock()
		defer traceMu.Unlock()
		if traceWinner < 0 || cost < winnerCost || (cost == winnerCost && r < traceWinner) {
			traceWinner, winnerCost, winnerTrace = r, cost, tr
		}
	}
	laneTraces := func(count int) []*Trace {
		if pr.o.Trace == nil {
			return nil
		}
		ts := make([]*Trace, count)
		for i := range ts {
			ts[i] = &Trace{}
		}
		return ts
	}

	// Eligible solves route full 64-lane groups through the bit-packed
	// kernels (one J-row walk sweeps 64 replicas); the remainder — and
	// every replica of a custom-factory or PackedOff solve — runs as
	// one-lane tasks. Lane r of a packed group reproduces the one-lane
	// replica with the same seed bit-for-bit, so routing never changes
	// results.
	packed := pr.o.Factory == nil && pr.o.Packed != PackedOff && replicas >= pbit.Lanes
	tasks := buildReplicaTasks(replicas, packed)

	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, len(tasks))
	// Cores the tasks leave idle go to the packed groups: each splits its
	// lanes into lane windows that sweep concurrently, at most one window
	// per spare P (pbit clamps the count to [1, 8], one octet per window).
	// A lone group on 2 Ps gets 2 windows; two groups on 2 Ps keep one
	// each. The count assumes this solve owns every P. Windows change no
	// lane's trajectory, only wall time.
	windows := procs / len(tasks)
	jobs := make(chan replicaTask)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One engine per task width, built on its first task and
			// reseeded for every later one.
			var one, group *engine
			defer func() {
				for _, e := range []*engine{one, group} {
					if e != nil {
						e.kernel.Close()
					}
				}
			}()
			var seeds [pbit.Lanes]uint64
			var progs [pbit.Lanes]func(ProgressInfo)
			for t := range jobs {
				e := &one
				if t.count > 1 {
					e = &group
				}
				if *e == nil {
					*e = pr.newEngine(t.count, windows)
				}
				for i := range t.count {
					seeds[i] = replicaSeed(pr.o.Seed, t.start+i)
					progs[i] = agg.Callback(t.start + i)
				}
				traces := laneTraces(t.count)
				out := results[t.start : t.start+t.count]
				(*e).solve(ctx, seeds[:t.count], out, traces, progs[:t.count], stopSiblings)
				for i, tr := range traces {
					keepIfWinner(t.start+i, out[i].BestCost, tr)
				}
			}
		}()
	}
feed:
	for _, t := range tasks {
		select {
		case jobs <- t:
		case <-ctx.Done():
			// Cancelled (by the caller or a target-reaching sibling):
			// replicas not yet started would each return an empty
			// StopCancelled result, so don't start them at all.
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	merged := &Result{BestCost: math.Inf(1), P: pr.pen}
	ran := 0
	for _, res := range results {
		if res == nil {
			continue // never started: the feeder stopped before this replica
		}
		ran++
		// StopTarget wins: siblings of a target-reaching replica report
		// StopCancelled only because it stopped them.
		if res.Stopped == StopTarget ||
			(res.Stopped != StopCompleted && merged.Stopped == StopCompleted) {
			merged.Stopped = res.Stopped
		}
		merged.FeasibleCount += res.FeasibleCount
		merged.Iterations += res.Iterations
		merged.TotalSweeps += res.TotalSweeps
		if res.BestCost < merged.BestCost {
			merged.BestCost = res.BestCost
			merged.Best = res.Best
			merged.Lambda = res.Lambda
		}
	}
	if merged.Lambda == nil {
		for _, res := range results {
			if res != nil {
				merged.Lambda = res.Lambda
				break
			}
		}
	}
	if ran == 0 {
		// The context was cancelled before any replica started.
		merged.Stopped = StopCancelled
	}
	if pr.o.Trace != nil && winnerTrace != nil {
		// Surface the winning replica's trajectory through the caller's
		// trace; keepIfWinner selected the same replica the merge above
		// picked (lowest index among minimal cost).
		*pr.o.Trace = *winnerTrace
	}
	return merged, nil
}

// replicaTask is one unit of replica-pool work: `count` consecutive
// replicas starting at index `start`. One-lane tasks carry one replica;
// packed tasks carry a full pbit.Lanes group.
type replicaTask struct {
	start, count int
}

// buildReplicaTasks splits the replica range into packed 64-lane groups
// (when packing is on) followed by one-lane tasks for the remainder.
func buildReplicaTasks(replicas int, packed bool) []replicaTask {
	var tasks []replicaTask
	r := 0
	if packed {
		for ; r+pbit.Lanes <= replicas; r += pbit.Lanes {
			tasks = append(tasks, replicaTask{start: r, count: pbit.Lanes})
		}
	}
	for ; r < replicas; r++ {
		tasks = append(tasks, replicaTask{start: r, count: 1})
	}
	return tasks
}

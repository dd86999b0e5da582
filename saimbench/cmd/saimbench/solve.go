package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/saimbench/internal/work"
)

// instance is one compiled qkp-dense instance of a run.
type instance struct {
	name     string
	compiled *saim.Model
	settings work.Settings
	ref      float64 // pinned reference cost
	target   float64 // time_to_target_s stops at a cost at or below it
	build    time.Duration
}

// gap is a cost's distance to the pinned reference, in percent.
func (in *instance) gap(cost float64) float64 {
	return 100 * (cost - in.ref) / math.Abs(in.ref)
}

// batchSetup builds the run's pinned QKPs with problems.Knapsack and
// compiles each.
func (b *bench) batchSetup() ([]*instance, error) {
	sc := b.scale
	refs, err := sc.QKPInstances(b.refs, b.seed)
	if err != nil {
		return nil, err
	}
	var out []*instance
	for _, r := range refs {
		t0 := time.Now()
		p, err := r.Knapsack()
		if err != nil {
			return nil, err
		}
		compiled, err := p.Model.Compile()
		if err != nil {
			return nil, err
		}
		out = append(out, &instance{name: r.Name, compiled: compiled, settings: sc.QKP, ref: r.Cost,
			target: r.Target(sc.TargetGap), build: time.Since(t0)})
	}
	return out, nil
}

// solveRec is what one fixed-budget solve showed through its hooks.
type solveRec struct {
	start, end   time.Time
	bounds       []time.Time // iteration boundaries: every lane sampled
	reached      time.Time   // first checkpoint at or below the target
	iterToTarget int         // iterations until the best cost met the target
	gaps         []float64   // best-so-far gap after each iteration
	feasiblePct  float64
	res          *saim.Result
	err          error
}

// iterMS returns the solve's iteration times in milliseconds.
func (r *solveRec) iterMS() []float64 {
	out := make([]float64, 0, len(r.bounds))
	for k := 1; k < len(r.bounds); k++ {
		out = append(out, ms(r.bounds[k].Sub(r.bounds[k-1])))
	}
	return out
}

// solve runs one fixed-budget saim solve, following it through
// WithProgress (iteration boundaries) and WithCheckpoint (improvements).
func (b *bench) solve(in *instance, seed uint64) *solveRec {
	r := &solveRec{}
	var mu sync.Mutex
	lanes := max(in.settings.Replicas, 1)
	opts := append(in.settings.Options(seed),
		saim.WithCheckpoint(func(_ []int, cost float64) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if r.reached.IsZero() && cost <= in.target {
				r.reached = now
			}
		}),
		saim.WithProgress(func(p saim.Progress) {
			// The replica pool reports once per lane; the iteration's last
			// lane closes it.
			if (p.Iteration+1)%lanes != 0 {
				return
			}
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			r.bounds = append(r.bounds, now)
			if r.iterToTarget == 0 && p.BestCost <= in.target {
				r.iterToTarget = len(r.bounds)
			}
			// Until the first feasible sample the answer in hand is the
			// empty knapsack: cost 0, a gap of 100%.
			gap := 100.0
			if !math.IsInf(p.BestCost, 1) {
				gap = in.gap(p.BestCost)
			}
			r.gaps = append(r.gaps, gap)
			r.feasiblePct = p.FeasibleRatio
		}))
	r.start = time.Now()
	r.res, r.err = saim.SolveModel(context.Background(), "saim", in.compiled, opts...)
	r.end = time.Now()
	return r
}

// checkSolve verifies one solve: its assignment must re-evaluate through
// saim.Model.Evaluate to the reported cost and be feasible, the cost may
// not beat its pinned reference, and the target must be reached
// within the budget. It reports whether the solve counts.
func (b *bench) checkSolve(in *instance, r *solveRec, out *outcome) bool {
	if r.err != nil {
		out.fail(b.log, "%s: %v", in.name, r.err)
		return false
	}
	res := r.res
	if res.Infeasible() {
		out.fail(b.log, "%s: no feasible assignment", in.name)
		return false
	}
	cost, feasible, err := in.compiled.Evaluate(res.Assignment)
	if err != nil || !feasible || math.Abs(cost-res.Cost) > 1e-6*(1+math.Abs(cost)) {
		out.mismatch("%s: reported cost %v re-evaluates to %v (feasible %v, error %v)", in.name, res.Cost, cost, feasible, err)
		return false
	}
	if cost < in.ref-1e-6*(1+math.Abs(in.ref)) {
		out.mismatch("%s: cost %v beats the pinned reference %v; re-pin it (saimprobe --pin)", in.name, cost, in.ref)
		return false
	}
	if r.reached.IsZero() || len(r.bounds) < 2 {
		out.fail(b.log, "%s: target %v not reached within the budget (best %v)", in.name, in.target, cost)
		return false
	}
	return true
}

// repeat re-solves an instance whose answer is known — its best assignment
// as warm start and its cost as target — so the solve must answer without
// annealing: the batch analogue of a dedup hit, costing the per-solve
// compile and engine set-up.
func (b *bench) repeat(in *instance, res *saim.Result, seed uint64) (time.Duration, error) {
	opts := append(in.settings.Options(seed), saim.WithInitial(res.Assignment), saim.WithTargetCost(res.Cost))
	t0 := time.Now()
	h, err := saim.SolveModel(context.Background(), "saim", in.compiled, opts...)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if h.Stopped != saim.StopTarget || h.Iterations != 0 || h.Cost != res.Cost {
		return d, fmt.Errorf("repeat answered %v after %d iterations (%v), want the known %v at once", h.Cost, h.Iterations, h.Stopped, res.Cost)
	}
	return d, nil
}

// iterSpan is a traced iteration whose layer leaves wait for the probes.
type iterSpan struct {
	idx   int
	group string
	start time.Time
}

// solveSpans records one solve: the root, the compile (as long as the
// repeat that answered without annealing took), and one span per iteration
// between WithProgress boundaries.
func solveSpans(rec *work.Recorder, group string, r *solveRec, compile time.Duration) []iterSpan {
	if rec == nil {
		return nil
	}
	root := rec.Add(-1, group, "saim.solve", r.start, r.end)
	prev := r.start.Add(compile)
	rec.Add(root, group, "saim.compile", r.start, prev)
	var its []iterSpan
	for _, bnd := range r.bounds {
		its = append(its, iterSpan{rec.Add(root, group, "core.iteration", prev, bnd), group, prev})
		prev = bnd
	}
	return its
}

// batch runs qkp-dense: the set-ups, one warm-up solve, then fixed-budget
// solves one after another for the measured time, each followed by a
// repeat of the same instance answered from its result.
func (b *bench) batch(rec *work.Recorder) (*outcome, error) {
	sc := b.scale
	out := newOutcome()
	var setups, builds []float64
	// setUp times one set-up. Each starts from a collected heap, so one
	// set-up's garbage does not bill the next.
	setUp := func() ([]*instance, error) {
		runtime.GC()
		t0 := time.Now()
		insts, err := b.batchSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, in := range insts {
			builds = append(builds, in.build.Seconds())
		}
		return insts, nil
	}
	var insts []*instance
	for i := 0; i < sc.Setups; i++ {
		var err error
		if insts, err = setUp(); err != nil {
			return nil, err
		}
	}
	// The warm-up solve finishes lazy set-up and fills caches before timing.
	b.solve(insts[0], work.Mix(b.seed, 8))

	// Per instance, since the instances' solve, target and repeat times
	// differ: a median over both would fall between them.
	walls := make([][]float64, len(insts))
	ttts := make([][]float64, len(insts))
	hits := make([][]float64, len(insts))
	var gaps, iters, feasible, toTarget, peaks []float64
	var its []iterSpan
	// Whole rounds over the instances only, so each weighs the same.
	cpu := cpuTimes()
	deadline := time.Now().Add(b.measure)
	for k := 0; k%len(insts) != 0 || k < sc.MinSolves || time.Now().Before(deadline); k++ {
		i := k % len(insts)
		in := insts[i]
		if i == 0 && k > 0 {
			// One more set-up between rounds, timed and then dropped: spread
			// over the run, a burst of load on a shared host cannot fall on
			// every set-up that setup_s is the median of.
			if _, err := setUp(); err != nil {
				return nil, err
			}
		}
		seed := work.Mix(b.seed, 9, uint64(k))
		resetPeakRSS()
		r := b.solve(in, seed)
		peaks = append(peaks, peakRSS("/proc/self/status"))
		out.attempted++
		if !b.checkSolve(in, r, out) {
			continue
		}
		wall, ttt, gap := r.end.Sub(r.start).Seconds(), r.reached.Sub(r.start).Seconds(), work.Mean(r.gaps)
		walls[i] = append(walls[i], wall)
		ttts[i] = append(ttts[i], ttt)
		gaps = append(gaps, gap)
		iters = append(iters, r.iterMS()...)
		feasible = append(feasible, r.feasiblePct)
		toTarget = append(toTarget, float64(r.iterToTarget))
		fmt.Fprintf(b.log, "saimbench: %s solve %d: %.3f s, target after %.3f s (iteration %d), gap %.4f%%, final gap %.4f%%\n",
			in.name, k, wall, ttt, r.iterToTarget, gap, in.gap(r.res.Cost))

		out.attempted++
		hit, err := b.repeat(in, r.res, seed)
		if err != nil {
			out.mismatch("%s: %v", in.name, err)
			continue
		}
		hits[i] = append(hits[i], ms(hit))
		its = append(its, solveSpans(rec, fmt.Sprintf("solve-%d", k), r, hit)...)
	}
	out.steal(b.log, cpu)

	out.e2e["setup_s"] = work.Median(setups)
	out.e2e["peak_rss_mb"] = work.Median(peaks)
	out.e2e["solve_s"] = meanOfMedians(walls)
	out.e2e["time_to_target_s"] = meanOfMedians(ttts)
	out.e2e["gap_pct"] = work.Mean(gaps)
	// A batch run has no request stream: its latencies are the solve
	// calls' own wall times and its rate their throughput, aliases of
	// solve_s that README.md lists as such. The tail is the slower
	// instance's median: a percentile over some twenty solves would be
	// their maximum, which one burst of load on the host sets.
	out.e2e["latency_p50_ms"] = 1000 * out.e2e["solve_s"]
	slower := 0.0
	for _, w := range walls {
		if len(w) > 0 {
			slower = math.Max(slower, work.Median(w))
		}
	}
	out.e2e["latency_p90_ms"] = 1000 * slower
	out.e2e["hit_latency_p50_ms"] = meanOfMedians(hits)
	out.e2e["max_rate_jobs_per_s"] = 1 / out.e2e["solve_s"]

	out.layer["core.iteration_ms"] = work.Median(iters)
	out.layer["saim.compile_ms"] = meanOfMedians(hits)
	out.layer["core.feasible_pct"] = work.Mean(feasible)
	out.layer["core.iterations_to_target"] = work.Median(toTarget)
	out.layer["model.build_s"] = work.Median(builds)
	out.layer["gen.sent.fixed"] = float64(out.attempted)
	out.layer["gen.ok.fixed"] = float64(out.attempted - out.failed)
	out.layer["gen.failed.fixed"] = float64(out.failed)
	if rec != nil {
		set := sc.QKP
		out.leaves = func(layer map[string]float64) {
			anneal := time.Duration(float64(set.Sweeps) * layer["pbit.sweep_us"] * float64(time.Microsecond))
			sample := time.Duration(float64(set.Replicas) * layer["core.lane_sample_us"] * float64(time.Microsecond))
			for _, it := range its {
				rec.Add(it.idx, it.group, "pbit.anneal", it.start, it.start.Add(anneal))
				rec.Add(it.idx, it.group, "core.sample", it.start.Add(anneal), it.start.Add(anneal+sample))
			}
		}
	}
	return out, nil
}

// meanOfMedians is the mean over instances of each instance's median.
func meanOfMedians(per [][]float64) float64 {
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, work.Median(xs))
		}
	}
	return work.Mean(meds)
}

// resetPeakRSS hands freed memory back to the OS and restarts the kernel's
// peak resident count before a solve, so each solve's peak covers that
// solve alone, from the same start: not the garbage the collector happened
// to leave standing from set-up or earlier solves.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the peak then includes set-up
}

// peakRSS reads a process's peak resident memory in MiB (VmHWM) from its
// /proc status file.
func peakRSS(status string) float64 {
	data, err := os.ReadFile(status)
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

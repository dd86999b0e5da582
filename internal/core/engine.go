package core

import (
	"context"
	"math"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/lagrange"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// lanes is the kernel contract the engine drives: replica lanes over one
// shared Hamiltonian, each with its own biases and randomness stream,
// annealed together one run at a time. The pbit packed machines are 64
// lanes; oneLane makes a scalar Machine one.
type lanes interface {
	ReseedLane(r int, src *rng.Source)
	UpdateLaneBiases(r int, h vecmat.Vec)
	// AnnealRun runs one annealing run on every lane from a random state.
	AnnealRun(sched schedule.Schedule, sweeps int)
	LaneStateInto(dst ising.Spins, r int)
	Close()
}

// oneLane runs a scalar Machine as a one-lane kernel.
type oneLane struct {
	m     Machine
	state ising.Spins // the last run's final configuration
}

func newOneLane(m Machine, n int) *oneLane {
	return &oneLane{m: m, state: ising.NewSpins(n)}
}

func (l *oneLane) ReseedLane(_ int, src *rng.Source)    { l.m.Reseed(src) }
func (l *oneLane) UpdateLaneBiases(_ int, h vecmat.Vec) { l.m.UpdateBiases(h) }
func (l *oneLane) LaneStateInto(dst ising.Spins, _ int) { copy(dst, l.state) }
func (l *oneLane) Close()                               {}

func (l *oneLane) AnnealRun(sched schedule.Schedule, sweeps int) {
	l.m.AnnealInto(l.state, sched, sweeps)
}

// engine runs Algorithm 1 on a lanes kernel, all lanes in lockstep: per
// iteration it re-programs every active lane's biases from that lane's
// private λ, runs ONE annealing run advancing all lanes — a packed
// kernel's lane windows sweeping concurrently, joined once — then samples,
// updates λ, and checks the stop rules per lane on the CPU side. It is
// core's only copy of the loop: a single solve runs it on one lane, the
// replica pool on 64-lane packed groups and one-lane remainder replicas.
//
// Determinism contract: lane r seeded with seed_r reproduces exactly the
// Result a one-lane solve with seed_r produces — same machine stream
// (rng.New(seed_r).Split(), consumed in the scalar draw order by the
// packed kernels), same field arithmetic per lane, same CPU-side λ
// recursion. Lanes that stop early (target/patience) are frozen: their
// Result fields stop advancing while the remaining lanes keep sweeping
// (a packed sweep always advances all 64 lanes, but lanes are independent,
// so the extra sweeps of a done lane are unobservable dead work).
//
// An engine is long-lived: it owns its kernel, per-lane state and every
// hot-loop scratch buffer, and reseeds rather than rebuilds per solve, so
// after warm-up a steady-state iteration allocates nothing and a pool
// worker runs many solves through one engine.
type engine struct {
	pr     *program
	kernel lanes
	step   lagrange.StepSchedule

	state []laneState // one per kernel lane

	// Per-iteration scratch, shared across lanes (lanes are sampled
	// sequentially within an iteration).
	biasDelta vecmat.Vec
	h         vecmat.Vec
	g         vecmat.Vec
	spins     ising.Spins
	x         ising.Bits
}

// laneState is one lane's side of Algorithm 1: its multipliers and stop
// bookkeeping.
type laneState struct {
	lam          *lagrange.Multipliers
	sinceImprove int  // iterations since the best feasible cost improved
	done         bool // stopped (target, patience or cancellation)
}

// newEngine builds a worker around the compiled program with `width`
// lanes: for a pbit.Lanes-wide replica group, the packed dense or CSR
// kernel split into `windows` lane windows (the pool packs only solves
// without a custom factory); for one lane, Options.Factory's machine or
// the dense or CSR p-bit machine Options.Machine resolves to. J is shared
// (machines never write it). Lane sources are placeholders until solve
// reseeds them: no machine draws randomness when it is built.
func (pr *program) newEngine(width, windows int) *engine {
	ext := pr.prob.Ext
	src := rng.New(pr.o.Seed)
	sparse := pr.o.Machine.Resolve(pr.model) == MachineSparse
	var kernel lanes
	switch {
	case width > 1 && sparse:
		kernel = pbit.NewPackedSparseWindows(pr.model, src, windows)
	case width > 1:
		kernel = pbit.NewPackedWindows(pr.model, src, windows)
	case pr.o.Factory != nil:
		// A custom machine may write its model's biases; it gets its own.
		kernel = newOneLane(pr.o.Factory(&ising.Model{J: pr.model.J, H: pr.baseH.Clone(), Const: pr.model.Const}, src), ext.NTotal)
	case sparse:
		kernel = newOneLane(pbit.NewSparse(pr.model, src), ext.NTotal)
	default:
		kernel = newOneLane(pbit.New(pr.model, src), ext.NTotal)
	}
	e := &engine{
		pr:        pr,
		kernel:    kernel,
		step:      lagrange.ConstantStep{Eta0: pr.o.Eta},
		state:     make([]laneState, width),
		biasDelta: vecmat.NewVec(ext.NTotal),
		h:         vecmat.NewVec(ext.NTotal),
		g:         vecmat.NewVec(ext.M()),
		spins:     ising.NewSpins(ext.NTotal),
		x:         make(ising.Bits, ext.NTotal),
	}
	if pr.o.EtaDecayPower != 0 {
		e.step = lagrange.DecayStep{Eta0: pr.o.Eta, Power: pr.o.EtaDecayPower}
	}
	for r := range e.state {
		e.state[r].lam = lagrange.New(ext.M(), pr.o.Eta)
		e.state[r].lam.NonNegative = pr.o.NonNegative
	}
	return e
}

// solveOne runs Algorithm 1 once on one lane with Options' seed, trace and
// progress.
func (pr *program) solveOne(ctx context.Context) *Result {
	var res [1]*Result
	pr.newEngine(1, 1).solve(ctx, []uint64{pr.o.Seed}, res[:], []*Trace{pr.o.Trace}, []func(ProgressInfo){pr.o.Progress}, nil)
	return res[0]
}

// solve runs Algorithm 1 on len(seeds) lanes (at most the engine's width)
// in lockstep and stores lane r's Result in results[r]. traces and
// progress, when non-nil, carry one per-lane slot (nil slots skip
// recording for that lane); onTarget, when non-nil, fires as soon as any
// lane reaches the target cost (the pool passes stopSiblings so the early
// stop keeps wall-clock effect across workers).
func (e *engine) solve(ctx context.Context, seeds []uint64, results []*Result, traces []*Trace, progress []func(ProgressInfo), onTarget func()) {
	pr := e.pr
	o := pr.o
	ext := pr.prob.Ext
	count := len(seeds)
	results = results[:count]

	for r, seed := range seeds {
		// The machine's stream is rng.New(seed).Split() whatever the
		// engine ran before, so a reused engine reproduces a fresh one.
		e.kernel.ReseedLane(r, rng.New(seed).Split())
		e.state[r].lam.Reset()
		e.state[r].sinceImprove, e.state[r].done = 0, false
		results[r] = &Result{BestCost: math.Inf(1), P: pr.pen}
	}
	remaining := count

	// Warm start: a feasible initial assignment seeds every lane's
	// best-so-far, so no lane returns worse than it, and one that meets the
	// target ends the solve before its first run. The runs themselves are
	// cold: a warm solve with seed s draws exactly the cold solve's
	// stream, and a sample replaces the seed only when strictly better.
	iters := o.Iterations
	if len(o.Initial) > 0 && ext.Orig.Feasible(o.Initial, 1e-9) {
		warmCost := pr.prob.Cost(o.Initial)
		for _, res := range results {
			res.BestCost = warmCost
			res.Best = o.Initial.Clone()
		}
		if o.TargetCost != nil && warmCost <= *o.TargetCost {
			for _, res := range results {
				res.Stopped = StopTarget
			}
			iters = 0
			remaining = 0
			if onTarget != nil {
				onTarget()
			}
		}
	}

	for k := 0; k < iters && remaining > 0; k++ {
		if ctx.Err() != nil {
			// Lanes cancelled at the top of iteration k report k completed
			// iterations.
			for r := 0; r < count; r++ {
				if !e.state[r].done {
					results[r].Stopped = StopCancelled
					e.state[r].done = true
				}
			}
			remaining = 0
			break
		}

		// Re-program each active lane's biases with its current λ:
		// h_k = baseH − Σ_m λ_m row_m / 2 (spin-domain image of λᵀg).
		for r := 0; r < count; r++ {
			if e.state[r].done {
				continue
			}
			lagrange.BiasDelta(e.biasDelta, ext, e.state[r].lam)
			vecmat.SubInto(e.h, pr.baseH, e.biasDelta)
			e.kernel.UpdateLaneBiases(r, e.h)
		}

		// One annealing run advances every lane together; the paper reads
		// each run's last sample.
		e.kernel.AnnealRun(pr.sched, o.SweepsPerRun)

		// Sample, track, and update λ per active lane.
		for r := 0; r < count; r++ {
			st := &e.state[r]
			if st.done {
				continue
			}
			res := results[r]
			res.Iterations = k + 1
			e.kernel.LaneStateInto(e.spins, r)
			e.spins.BitsInto(e.x)
			ext.ResidualsInto(e.g, e.x)

			feasible := ext.OrigFeasible(e.x, 1e-9)
			cost := pr.prob.Cost(e.x[:ext.NOrig])
			st.sinceImprove++
			if feasible {
				res.FeasibleCount++
				if cost < res.BestCost {
					res.BestCost = cost
					if res.Best == nil {
						res.Best = make(ising.Bits, ext.NOrig)
					}
					copy(res.Best, e.x[:ext.NOrig])
					st.sinceImprove = 0
					if o.Checkpoint != nil {
						o.Checkpoint(res.Best, cost)
					}
				}
			}

			if traces != nil && traces[r] != nil {
				traces[r].record(pr, cost, feasible, st.lam, e.x, e.g)
			}
			// λ ← λ + η_k g(x_k).
			st.lam.UpdateScheduled(e.g, e.step)

			if progress != nil && progress[r] != nil {
				progress[r](ProgressInfo{
					Iteration:     k,
					Total:         o.Iterations,
					BestCost:      res.BestCost,
					FeasibleCount: res.FeasibleCount,
					Samples:       k + 1,
					LambdaNorm:    st.lam.Values.Norm2(),
					Sweeps:        int64(k+1) * int64(o.SweepsPerRun),
				})
			}
			if o.TargetCost != nil && res.Best != nil && res.BestCost <= *o.TargetCost {
				res.Stopped = StopTarget
				st.done = true
				remaining--
				if onTarget != nil {
					onTarget()
				}
				continue
			}
			if o.Patience > 0 && st.sinceImprove >= o.Patience {
				res.Stopped = StopPatience
				st.done = true
				remaining--
			}
		}
	}

	for r, res := range results {
		// Each lane ran exactly Iterations runs before freezing.
		res.TotalSweeps = int64(res.Iterations) * int64(o.SweepsPerRun)
		res.Lambda = e.state[r].lam.Values.Clone()
	}
}

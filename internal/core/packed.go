package core

import (
	"context"
	"math"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/lagrange"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/vecmat"
)

// packedEngine drives one pbit packed kernel (64 replica lanes over one
// shared Hamiltonian) through Algorithm 1 in lockstep: per iteration it
// re-programs every active lane's biases from that lane's private λ, runs
// ONE packed annealing run advancing all lanes — its lane windows sweeping
// concurrently, joined once — then samples, updates λ, and checks the
// stop rules per lane on the CPU side.
//
// Determinism contract: lane r seeded with seed_r reproduces exactly the
// Result a scalar engine.solve(ctx, seed_r, …) produces — same machine
// stream (rng.New(seed_r).Split(), consumed in the scalar draw order by
// the packed kernels), same field arithmetic per lane, same CPU-side λ
// recursion. Lanes that stop early (target/patience) are frozen: their
// Result fields stop advancing while the remaining lanes keep sweeping
// (a packed sweep always advances all 64 lanes, but lanes are independent,
// so the extra sweeps of a done lane are unobservable dead work).
type packedEngine struct {
	pr   *program
	pk   pbit.PackedKernel
	step lagrange.StepSchedule
	lams [pbit.Lanes]*lagrange.Multipliers

	// Per-iteration scratch, shared across lanes (lanes are sampled
	// sequentially within an iteration).
	biasDelta vecmat.Vec
	h         vecmat.Vec
	g         vecmat.Vec
	spins     ising.Spins
	x         ising.Bits
}

// newPackedEngine builds a packed worker around the compiled program. The
// kernel (dense or CSR) follows the same Machine kind resolution as the
// scalar factories and splits its lanes into `windows` lane windows; lane
// sources are placeholders until solve reseeds them.
func (pr *program) newPackedEngine(windows int) *packedEngine {
	ext := pr.prob.Ext
	pe := &packedEngine{
		pr:        pr,
		step:      lagrange.ConstantStep{Eta0: pr.o.Eta},
		biasDelta: vecmat.NewVec(ext.NTotal),
		h:         vecmat.NewVec(ext.NTotal),
		g:         vecmat.NewVec(ext.M()),
		spins:     ising.NewSpins(ext.NTotal),
		x:         make(ising.Bits, ext.NTotal),
	}
	if pr.o.EtaDecayPower != 0 {
		pe.step = lagrange.DecayStep{Eta0: pr.o.Eta, Power: pr.o.EtaDecayPower}
	}
	if pr.o.Machine.Resolve(pr.model) == MachineSparse {
		pe.pk = pbit.NewPackedSparseWindows(pr.model, rng.New(pr.o.Seed), windows)
	} else {
		pe.pk = pbit.NewPackedWindows(pr.model, rng.New(pr.o.Seed), windows)
	}
	for r := 0; r < pbit.Lanes; r++ {
		pe.lams[r] = lagrange.New(ext.M(), pr.o.Eta)
		pe.lams[r].NonNegative = pr.o.NonNegative
	}
	return pe
}

// solve runs Algorithm 1 on len(seeds) lanes (≤ pbit.Lanes) in lockstep
// and returns one Result per lane, each bit-identical to what the scalar
// engine produces for the same seed. traces and progress, when non-nil,
// carry one per-lane slot (nil slots skip recording for that lane);
// onTarget, when non-nil, fires as soon as any lane reaches the target
// cost (the pool passes stopSiblings so the early stop keeps wall-clock
// effect across workers).
func (pe *packedEngine) solve(ctx context.Context, seeds []uint64, traces []*Trace, progress []func(ProgressInfo), onTarget func()) []*Result {
	pr := pe.pr
	o := pr.o
	ext := pr.prob.Ext
	count := len(seeds)

	for r, seed := range seeds {
		// Exactly the scalar stream: the machine consumes rng.New(seed).Split().
		pe.pk.ReseedLane(r, rng.New(seed).Split())
		pe.lams[r].Reset()
	}

	results := make([]*Result, count)
	done := make([]bool, count)
	sinceImprove := make([]int, count)
	for r := range results {
		results[r] = &Result{BestCost: math.Inf(1), P: pr.pen}
	}
	remaining := count

	// Warm start mirrors engine.solve: a feasible initial assignment seeds
	// every lane's best-so-far, and the first run continues from it instead
	// of a random state.
	warm := len(o.Initial) > 0
	iters := o.Iterations
	if warm && ext.Orig.Feasible(o.Initial, 1e-9) {
		warmCost := pr.prob.Cost(o.Initial)
		for r := range results {
			results[r].BestCost = warmCost
			results[r].Best = o.Initial.Clone()
		}
		if o.TargetCost != nil && warmCost <= *o.TargetCost {
			for r := range results {
				results[r].Stopped = StopTarget
			}
			iters = 0
			remaining = 0
			if onTarget != nil {
				onTarget()
			}
		}
	}
	if warm && remaining > 0 {
		// Pre-build the warm spin configuration once; every lane of a pooled
		// solve warm-starts from the same assignment (cf. annealFromInitial).
		copy(pe.x[:ext.NOrig], o.Initial)
		for j := ext.NOrig; j < ext.NTotal; j++ {
			pe.x[j] = 0
		}
		ext.CompleteSlacks(pe.x)
		pe.x.SpinsInto(pe.spins)
	}

	for k := 0; k < iters && remaining > 0; k++ {
		if ctx.Err() != nil {
			// Same boundary as the scalar loop: lanes cancelled at the top
			// of iteration k report k completed iterations.
			for r := 0; r < count; r++ {
				if !done[r] {
					results[r].Stopped = StopCancelled
					done[r] = true
				}
			}
			remaining = 0
			break
		}

		// Re-program each active lane's biases with its current λ.
		for r := 0; r < count; r++ {
			if done[r] {
				continue
			}
			lagrange.BiasDelta(pe.biasDelta, ext, pe.lams[r])
			vecmat.SubInto(pe.h, pr.baseH, pe.biasDelta)
			pe.pk.UpdateLaneBiases(r, pe.h)
		}

		// One packed annealing run advances every lane together.
		if k == 0 && warm {
			pe.pk.SetAllLanesState(pe.spins)
			pe.pk.AnnealFromRun(pr.sched, o.SweepsPerRun)
		} else {
			pe.pk.AnnealRun(pr.sched, o.SweepsPerRun)
		}

		// Sample, track, and update λ per active lane.
		for r := 0; r < count; r++ {
			if done[r] {
				continue
			}
			res := results[r]
			res.Iterations = k + 1
			pe.pk.LaneStateInto(pe.spins, r)
			pe.spins.BitsInto(pe.x)
			ext.ResidualsInto(pe.g, pe.x)

			feasible := ext.OrigFeasible(pe.x, 1e-9)
			cost := pr.prob.Cost(pe.x[:ext.NOrig])
			sinceImprove[r]++
			if feasible {
				res.FeasibleCount++
				if cost < res.BestCost {
					res.BestCost = cost
					if res.Best == nil {
						res.Best = make(ising.Bits, ext.NOrig)
					}
					copy(res.Best, pe.x[:ext.NOrig])
					sinceImprove[r] = 0
					if o.Checkpoint != nil {
						o.Checkpoint(res.Best, cost)
					}
				}
			}

			if traces != nil && traces[r] != nil {
				traces[r].record(pr, cost, feasible, pe.lams[r], pe.x, pe.g)
			}
			pe.lams[r].UpdateScheduled(pe.g, pe.step)

			if progress != nil && progress[r] != nil {
				progress[r](ProgressInfo{
					Iteration:     k,
					Total:         o.Iterations,
					BestCost:      res.BestCost,
					FeasibleCount: res.FeasibleCount,
					Samples:       k + 1,
					LambdaNorm:    pe.lams[r].Values.Norm2(),
					Sweeps:        int64(k+1) * int64(o.SweepsPerRun),
				})
			}
			if o.TargetCost != nil && res.Best != nil && res.BestCost <= *o.TargetCost {
				res.Stopped = StopTarget
				done[r] = true
				remaining--
				if onTarget != nil {
					onTarget()
				}
				continue
			}
			if o.Patience > 0 && sinceImprove[r] >= o.Patience {
				res.Stopped = StopPatience
				done[r] = true
				remaining--
			}
		}
	}

	for r := 0; r < count; r++ {
		res := results[r]
		// Each lane ran exactly Iterations packed runs before freezing —
		// the same count a scalar machine's Sweeps() delta reports.
		res.TotalSweeps = int64(res.Iterations) * int64(o.SweepsPerRun)
		res.Lambda = pe.lams[r].Values.Clone()
	}
	return results
}

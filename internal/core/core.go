// Package core implements the paper's primary contribution: the
// Self-Adaptive Ising Machine (SAIM) of Algorithm 1.
//
// SAIM solves min f(x) s.t. g(x)=0 by alternating two processes:
//
//  1. an Ising machine heuristically minimizes the Lagrange function
//     L_k(x) = f(x) + P‖g(x)‖² + λ_kᵀ g(x) over one annealing run;
//  2. a CPU-side update moves the multipliers along the measured residuals,
//     λ_{k+1} = λ_k + η·g(x_k), a surrogate-subgradient ascent step on the
//     dual problem max_λ min_x L.
//
// The penalty weight stays fixed at a deliberately small P = α·d·N (below
// the critical Pc the classical penalty method would need); the adapting λ
// closes the resulting gap by reshaping the energy landscape. Because g is
// linear, each λ update re-programs only the Ising bias vector h — the
// coupling matrix J is built once.
//
// Feasible samples are checked against the *original* inequality
// constraints and the best one (by true objective value) is returned.
//
// The solve path is organized as a compiled program (energy model and base
// biases, built once per problem) driving per-worker engines that own one
// long-lived kernel plus all hot-loop scratch; a steady-state SAIM
// iteration performs zero heap allocations (see DESIGN.md §5.3). A kernel
// is a packed group of 64 replica lanes or one scalar Machine run as a
// single lane, and one engine loop drives both: single solves, replica-pool
// remainders and packed groups all run Algorithm 1 through engine.solve.
//
// The same engine runs the paper's baselines: the classical penalty
// method is Algorithm 1 with η pinned to 0 (SolvePenaltyContext), and an
// unconstrained QUBO is a Problem with an empty constraint system (M = 0),
// whose energy is the objective itself.
package core

import (
	"context"
	"fmt"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/lagrange"
	"github.com/ising-machines/saim/internal/penalty"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// Machine is the Ising-machine contract SAIM needs: an annealer that
// re-programs its bias vector between runs, takes a fresh randomness
// source per solve, and writes each run's final configuration into a
// caller-owned buffer, starting from a random state or from one it was
// given. Both p-bit machines of package pbit implement it; the engine runs
// a Machine as a one-lane kernel (see lanes).
type Machine interface {
	// UpdateBiases re-programs the field vector h of the machine's model.
	UpdateBiases(h vecmat.Vec)
	// Reseed replaces the randomness source; every solve reseeds before
	// its first run, so one machine serves many solves.
	Reseed(src *rng.Source)
	// SetState installs a configuration (the warm start).
	SetState(s ising.Spins)
	// AnnealInto runs one annealing run of the given number of sweeps from
	// a fresh random state and writes the final configuration into dst.
	AnnealInto(dst ising.Spins, sched schedule.Schedule, sweeps int)
	// AnnealFromInto is AnnealInto from the current configuration.
	AnnealFromInto(dst ising.Spins, sched schedule.Schedule, sweeps int)
}

// MachineFactory builds a Machine for a concrete Hamiltonian. The model's
// bias vector is the machine's own; src is a placeholder that each solve
// replaces through Reseed, so building a machine must draw no randomness.
type MachineFactory func(model *ising.Model, src *rng.Source) Machine

// MachineKind selects which p-bit kernel a solve uses. The zero value
// picks automatically from the model's coupling density; Dense and Sparse
// force one kernel. All kinds produce bit-identical trajectories for the
// same seed, so the choice affects throughput only.
type MachineKind int

const (
	// MachineAuto picks dense or CSR from the model's OffDiagDensity.
	MachineAuto MachineKind = iota
	// MachineDense forces the dense-row kernel.
	MachineDense
	// MachineSparse forces the CSR kernel.
	MachineSparse
)

// String implements fmt.Stringer.
func (k MachineKind) String() string {
	switch k {
	case MachineAuto:
		return "auto"
	case MachineDense:
		return "dense"
	case MachineSparse:
		return "sparse"
	default:
		return fmt.Sprintf("MachineKind(%d)", int(k))
	}
}

// PackedMode selects whether the replica pool may route groups of 64
// replicas through the bit-packed multi-spin kernels (pbit.PackedMachine /
// pbit.PackedSparseMachine), which sweep 64 replicas per J-row walk
// instead of one. Packing never changes results: every lane reproduces the
// scalar replica with the same seed bit-for-bit (pinned by
// TestSolveParallelPackedMatchesScalarReplicas), so the mode affects
// throughput only.
type PackedMode int

const (
	// PackedAuto (the default) packs whenever a solve is eligible: no
	// custom MachineFactory and at least pbit.Lanes (64) replicas.
	PackedAuto PackedMode = iota
	// PackedOn behaves as PackedAuto: it packs every eligible solve, and
	// custom factories run one-lane replicas.
	PackedOn
	// PackedOff runs every replica as a one-lane task on a scalar machine.
	PackedOff
)

// String implements fmt.Stringer.
func (p PackedMode) String() string {
	switch p {
	case PackedAuto:
		return "auto"
	case PackedOn:
		return "on"
	case PackedOff:
		return "off"
	default:
		return fmt.Sprintf("PackedMode(%d)", int(p))
	}
}

// SparseDensityThreshold is the coupling density below which MachineAuto
// selects the CSR kernel. The CSR sweep costs O(Σ degree) against the dense
// kernel's O(N·flips); the crossover sits near 50% density (the
// adjacency-list comment of the paper's ref [10], confirmed by
// BenchmarkSweepSparseVsDense).
const SparseDensityThreshold = 0.5

// Resolve returns the concrete kind MachineAuto selects for the model
// (Dense and Sparse resolve to themselves).
func (k MachineKind) Resolve(model *ising.Model) MachineKind {
	if k != MachineAuto {
		return k
	}
	if model.J.OffDiagDensity() < SparseDensityThreshold {
		return MachineSparse
	}
	return MachineDense
}

// Problem is a constrained binary optimization problem in the form SAIM
// consumes: a QUBO objective over the extended (decision + slack) variables
// and the equality-form constraint system.
type Problem struct {
	// Objective is f over Ext.NTotal variables; slack columns must have
	// zero objective coefficients. Typically normalized so that
	// max(|Q|,|c|)=1 (the paper normalizes all instances).
	Objective *ising.QUBO
	// Ext is the equality-form constraint system (normalized likewise).
	Ext *constraint.Extended
	// Cost returns the true (un-normalized) objective of a decision-bit
	// assignment. It is used to rank feasible samples and report results.
	Cost func(x ising.Bits) float64
	// Density is the instance coupling density d used by the P = α·d·N
	// heuristic (e.g. the W-matrix density for QKP, 2/(N+1) for MKP).
	// If zero, the measured J density of the built energy is used.
	Density float64
}

// Validate reports structural problems.
func (p *Problem) Validate() error {
	if p.Objective == nil || p.Ext == nil || p.Cost == nil {
		return fmt.Errorf("core: problem missing objective, constraints, or cost")
	}
	if p.Objective.N() != p.Ext.NTotal {
		return fmt.Errorf("core: objective over %d vars, constraints over %d",
			p.Objective.N(), p.Ext.NTotal)
	}
	return p.Objective.Validate()
}

// Options configures one SAIM solve. Zero values fall back to the paper's
// QKP settings (Table I).
type Options struct {
	// Alpha is the penalty heuristic coefficient in P = α·d·N. Paper:
	// 2 for QKP, 5 for MKP. Ignored when P is set explicitly.
	Alpha float64
	// P overrides the penalty weight when non-zero.
	P float64
	// Eta is the multiplier step size η. Paper: 20 for QKP, 0.05 for MKP.
	Eta float64
	// EtaDecayPower, when non-zero, switches the λ update to the
	// diminishing schedule η_k = η/(k+1)^power (0.5 is the classical
	// subgradient choice). Zero keeps the paper's constant step.
	EtaDecayPower float64
	// Iterations is K, the number of annealing runs (λ updates).
	Iterations int
	// SweepsPerRun is the MCS budget of each run (paper: 1000).
	SweepsPerRun int
	// BetaMax is the final inverse temperature of the linear β-schedule
	// (paper: 10 for QKP, 50 for MKP).
	BetaMax float64
	// Seed drives all stochasticity of the solve.
	Seed uint64
	// NonNegative projects λ onto λ ≥ 0 after each update (ablation).
	NonNegative bool
	// Machine selects the p-bit kernel (auto/dense/CSR). Ignored when
	// Factory is set.
	Machine MachineKind
	// Packed controls whether SolveParallel may sweep replicas 64-at-a-time
	// through the bit-packed kernels. The zero value (PackedAuto) packs
	// whenever eligible; packing never changes results. Single solves
	// (replicas == 1) ignore it.
	Packed PackedMode
	// Factory, when non-nil, builds the Ising machine each engine runs as
	// a one-lane kernel instead of the p-bit kernel Machine selects; such
	// solves are never packed.
	Factory MachineFactory
	// Trace, when non-nil, records the per-iteration trajectory.
	Trace *Trace
	// Progress, when non-nil, is invoked once per iteration (after the λ
	// update) with a snapshot of the solve. It runs on the solving
	// goroutine; keep it cheap.
	Progress func(ProgressInfo)
	// TargetCost, when non-nil, stops the solve early as soon as a
	// feasible sample reaches a cost ≤ *TargetCost.
	TargetCost *float64
	// Patience, when positive, stops the solve after this many consecutive
	// iterations without an improvement of the best feasible cost.
	Patience int
	// Initial, when non-empty, warm-starts the solve: the first annealing
	// run starts from this decision-bit assignment (slack bits completed
	// greedily) instead of a random state, and — when the assignment is
	// feasible — it also seeds the best-so-far, so the solve never returns
	// a worse result than the warm start. Length must be Ext.NOrig.
	Initial ising.Bits
	// Checkpoint, when non-nil, is invoked whenever a new best feasible
	// assignment is found, with the decision bits and their true cost.
	// The bits slice is the engine's live buffer — copy it before
	// retaining. Under the replica pool the callback runs concurrently
	// from several engines; the caller must synchronize.
	Checkpoint func(best ising.Bits, cost float64)
}

// ProgressInfo is the per-iteration snapshot streamed to Options.Progress.
type ProgressInfo struct {
	// Iteration is the zero-based index of the iteration just finished;
	// Total is the configured iteration count.
	Iteration, Total int
	// BestCost is the best feasible cost so far (+Inf when none).
	BestCost float64
	// FeasibleCount is the number of feasible samples so far, out of
	// Samples examined (one per iteration for the annealing loops, many
	// per sweep for parallel tempering).
	FeasibleCount int
	// Samples is the number of samples examined so far.
	Samples int
	// LambdaNorm is the Euclidean norm of the current multiplier vector.
	LambdaNorm float64
	// Sweeps is the cumulative Monte-Carlo sweep count so far.
	Sweeps int64
}

// StopReason records why an iterative solve returned.
type StopReason int

const (
	// StopCompleted means the full iteration budget was spent.
	StopCompleted StopReason = iota
	// StopCancelled means the context was cancelled; the result holds the
	// best-so-far state and is still valid.
	StopCancelled
	// StopTarget means a feasible sample reached the target cost.
	StopTarget
	// StopPatience means the improvement patience was exhausted.
	StopPatience
	// StopTimeLimit means the configured wall-clock limit expired; the
	// result holds the best-so-far state and is still valid. Backends
	// check the deadline at the same cadence as cancellation (once per
	// annealing run or equivalent).
	StopTimeLimit
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopCompleted:
		return "completed"
	case StopCancelled:
		return "cancelled"
	case StopTarget:
		return "target-reached"
	case StopPatience:
		return "patience-exhausted"
	case StopTimeLimit:
		return "time-limit"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Alpha == 0 {
		out.Alpha = 2
	}
	if out.Eta == 0 {
		out.Eta = 20
	}
	if out.Iterations == 0 {
		out.Iterations = 2000
	}
	if out.SweepsPerRun == 0 {
		out.SweepsPerRun = 1000
	}
	if out.BetaMax == 0 {
		out.BetaMax = 10
	}
	return out
}

// Trace records the per-iteration trajectory of a SAIM run, enough to
// regenerate the paper's Fig. 3 (QKP cost + λ) and Fig. 5 (MKP cost + λ_m).
type Trace struct {
	// Cost[k] is the true objective of sample x_k (feasible or not).
	Cost []float64
	// Feasible[k] reports whether x_k satisfied the original constraints.
	Feasible []bool
	// Lambda[k] is a copy of λ after iteration k.
	Lambda [][]float64
	// Energy[k] is L_k(x_k), the measured (heuristic) dual value.
	Energy []float64
}

// record appends iteration k's sample. L_k(x_k) = E(x_k) + λᵀg(x_k) costs a
// full energy evaluation, so it is computed here, only for traced solves.
func (t *Trace) record(pr *program, cost float64, feasible bool, lam *lagrange.Multipliers, x ising.Bits, g vecmat.Vec) {
	t.Cost = append(t.Cost, cost)
	t.Feasible = append(t.Feasible, feasible)
	t.Lambda = append(t.Lambda, lam.Values.Clone())
	t.Energy = append(t.Energy, pr.energy.Energy(x)+lam.Values.Dot(g))
}

// Result is the outcome of a SAIM solve.
type Result struct {
	// Best is the decision-bit assignment of the best feasible sample,
	// or nil when no feasible sample was observed.
	Best ising.Bits
	// BestCost is Cost(Best), +Inf when Best is nil.
	BestCost float64
	// FeasibleCount is the number of iterations whose sample was feasible.
	FeasibleCount int
	// Iterations is the number of annealing runs executed (K).
	Iterations int
	// TotalSweeps is the cumulative MCS spent.
	TotalSweeps int64
	// P is the penalty weight used.
	P float64
	// Lambda is the final multiplier vector.
	Lambda vecmat.Vec
	// Stopped records why the solve returned (budget spent, context
	// cancelled, target cost reached, or patience exhausted).
	Stopped StopReason
}

// FeasibleRatio returns FeasibleCount/Iterations in percent, the number the
// paper reports in parentheses next to average accuracies. Each iteration
// examines exactly one sample (the annealing run's final state), so this
// is the percentage of feasible samples — the same definition every layer
// (Result.FeasibleRatio, Progress.FeasibleRatio) documents.
func (r *Result) FeasibleRatio() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return 100 * float64(r.FeasibleCount) / float64(r.Iterations)
}

// HeuristicPenalty returns the paper's P = α·d·N penalty weight for the
// problem, measuring the coupling density of the built energy (objective +
// penalty quadratic structure at a nominal P) when the problem does not
// carry an instance density. Solve uses it whenever Options.P is unset;
// the penalty-method and parallel-tempering baselines share it so every
// backend prices constraints from the same heuristic.
func HeuristicPenalty(p *Problem, alpha float64) float64 {
	d := p.Density
	if d == 0 {
		probe := penalty.Build(p.Objective, p.Ext, 1)
		d = probe.ToIsing().Density()
	}
	return penalty.Heuristic(alpha, d, p.Ext.NTotal)
}

// program is the compiled, shareable part of a solve: the penalty energy,
// its Ising image, and the base biases, built once per problem. Engines —
// including every replica-pool worker — share one program; nothing in it
// is mutated after compile, so concurrent engines only copy H.
type program struct {
	prob   *Problem
	o      Options // defaults applied
	pen    float64
	energy *ising.QUBO
	model  *ising.Model
	baseH  vecmat.Vec
	sched  schedule.Schedule
}

// compile validates the problem and builds the energy model once.
// E = f + P‖g‖²; λ terms only touch h afterwards. Without constraint rows
// E = f and P is unused (reported as 0), so the density probe and the
// energy copy are skipped; nothing in a program is mutated, so sharing f
// is safe.
func compile(p *Problem, opts Options) (*program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if len(o.Initial) > 0 && len(o.Initial) != p.Ext.NOrig {
		return nil, fmt.Errorf("core: initial assignment length %d, want %d", len(o.Initial), p.Ext.NOrig)
	}
	energy, pen := p.Objective, 0.0
	if p.Ext.M() > 0 {
		pen = o.P
		if pen == 0 {
			pen = HeuristicPenalty(p, o.Alpha)
		}
		if pen < 0 {
			return nil, fmt.Errorf("core: negative penalty weight %v", pen)
		}
		energy = penalty.Build(p.Objective, p.Ext, pen)
	}
	model := energy.ToIsing()
	return &program{
		prob:   p,
		o:      o,
		pen:    pen,
		energy: energy,
		model:  model,
		baseH:  model.H.Clone(),
		sched:  schedule.Linear{Start: 0, End: o.BetaMax},
	}, nil
}

// Solve runs Algorithm 1 on the problem.
func Solve(p *Problem, opts Options) (*Result, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext runs Algorithm 1 on the problem under a context. The context
// is checked once per annealing run (not per sweep, keeping the hot path
// unchanged); on cancellation the best-so-far result is returned with a nil
// error and Stopped == StopCancelled.
func SolveContext(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	pr, err := compile(p, opts)
	if err != nil {
		return nil, err
	}
	return pr.solveOne(ctx), nil
}

// SolvePenaltyContext runs the classical penalty method, the baseline the
// paper compares SAIM against: Algorithm 1 with η pinned to 0, so λ stays
// zero and every run anneals the fixed energy E = f + P‖g‖² (P from
// Options.P, else the α·d·N heuristic). Options.Eta and EtaDecayPower are
// ignored. Cancellation behaves as in SolveContext.
func SolvePenaltyContext(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	pr, err := compile(p, opts)
	if err != nil {
		return nil, err
	}
	pr.o.Eta = 0
	return pr.solveOne(ctx), nil
}

package saim

import (
	"time"

	"github.com/ising-machines/saim/internal/core"
)

// MachineKind selects which p-bit sweep kernel the annealing backends
// (saim, penalty, pt) run on. It aliases the internal core type so every
// layer shares one vocabulary.
type MachineKind = core.MachineKind

// Re-exported machine kinds.
const (
	// MachineAuto (the default) picks the dense or CSR kernel per model
	// from its off-diagonal coupling density. Both kernels produce
	// bit-identical trajectories for the same seed, so auto-selection
	// affects throughput only, never results.
	MachineAuto = core.MachineAuto
	// MachineDense forces the dense-row kernel (O(N·flips) per sweep).
	MachineDense = core.MachineDense
	// MachineSparse forces the CSR kernel (O(Σ degree) per sweep).
	MachineSparse = core.MachineSparse
)

// PackedMode selects whether the saim backend's replica pool may sweep
// replicas 64-at-a-time through the bit-packed multi-spin kernels. It
// aliases the internal core type so every layer shares one vocabulary.
type PackedMode = core.PackedMode

// Re-exported packed-replica modes.
const (
	// PackedOn (the default) packs whenever a solve is eligible: at
	// least 64 replicas. Packing never changes results — every packed
	// lane reproduces the scalar replica with the same seed bit-for-bit —
	// so the mode affects throughput only.
	PackedOn = core.PackedOn
	// PackedOff forces one scalar machine per replica.
	PackedOff = core.PackedOff
)

// Option configures a Solver.Solve call. Options are shared across
// backends; each backend reads the subset that applies to it and ignores
// the rest, so one option list can be reused when comparing solvers.
type Option func(*config)

// config is the merged option set a backend reads.
type config struct {
	alpha        float64
	penalty      float64
	eta          float64
	iterations   int
	sweepsPerRun int
	betaMax      float64
	seed         uint64
	machine      MachineKind
	packed       PackedMode
	replicas     int
	population   int
	timeLimit    time.Duration
	nodeLimit    int
	//saim:nofingerprint — a progress callback observes a solve without
	// changing it; excluding it lets the service dedup two submissions
	// differing only in observation (see OptionsFingerprint's doc).
	progress func(Progress)
	//saim:nofingerprint — a checkpoint callback observes best-so-far
	// snapshots without changing the solve, exactly like progress; the
	// service's durable mode must not break dedup by installing one.
	checkpoint  func(assignment []int, cost float64)
	targetCost  *float64
	patience    int
	initial     []int
	subSize     int
	innerSolver string
	rounds      int
	tabuTenure  *int
	racers      []string
}

func buildConfig(opts []Option) config {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// WithAlpha sets the penalty heuristic coefficient in P = α·d·N (paper: 2
// for QKP, 5 for MKP). Ignored when WithPenalty is set.
func WithAlpha(alpha float64) Option { return func(c *config) { c.alpha = alpha } }

// WithPenalty sets the penalty weight P explicitly, overriding the α·d·N
// heuristic. The penalty and pt backends also honor it.
func WithPenalty(p float64) Option { return func(c *config) { c.penalty = p } }

// WithEta sets the Lagrange multiplier step size η (paper: 20 for QKP,
// 0.05 for MKP).
func WithEta(eta float64) Option { return func(c *config) { c.eta = eta } }

// WithIterations sets the number of annealing runs / λ updates (and scales
// the equivalent effort knob of the non-annealing backends).
func WithIterations(k int) Option { return func(c *config) { c.iterations = k } }

// WithSweepsPerRun sets the Monte-Carlo sweep budget of each annealing run.
func WithSweepsPerRun(s int) Option { return func(c *config) { c.sweepsPerRun = s } }

// WithBetaMax sets the final inverse temperature of the linear β-schedule.
func WithBetaMax(b float64) Option { return func(c *config) { c.betaMax = b } }

// WithSeed makes the solve reproducible.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMachine forces the dense or CSR sweep kernel for the annealing
// backends (saim, penalty, pt), overriding the density-based
// auto-selection. Kernel choice never changes results — the kernels are
// trajectory-identical for the same seed — only throughput.
func WithMachine(k MachineKind) Option { return func(c *config) { c.machine = k } }

// WithPackedReplicas controls whether the saim backend's replica pool
// (WithReplicas ≥ 64 on quadratic models) routes full 64-replica groups
// through the bit-packed multi-spin kernels, which sweep 64 replicas per
// coupling-row walk instead of one. PackedOn (the default) packs
// whenever eligible; PackedOff forces scalar per-replica machines. When
// the pool has fewer groups and scalar replicas than GOMAXPROCS, each
// group splits its 64 lanes into up to eight lane windows that anneal
// concurrently, so a lone group on an otherwise idle machine uses every
// core. Packing and windows never change results — each packed lane
// reproduces the scalar replica with the same seed bit-for-bit — only
// throughput. Backends without a replica pool ignore it.
func WithPackedReplicas(m PackedMode) Option { return func(c *config) { c.packed = m } }

// WithReplicas sets the number of parallel-tempering temperature rungs
// (default 26, as in PT-DA), or — for the saim backend on constrained and
// unconstrained models — the number of independent restarts merged into
// one result (default 1; the saim backend rejects replicas > 1 for
// high-order models rather than silently running one chain). The saim
// restarts run concurrently, up to GOMAXPROCS at a time; each full group
// of 64 sweeps through the bit-packed kernels (see WithPackedReplicas).
// Same-seed results do not depend on GOMAXPROCS.
func WithReplicas(r int) Option { return func(c *config) { c.replicas = r } }

// WithPopulation sets the GA population size (default 100).
func WithPopulation(p int) Option { return func(c *config) { c.population = p } }

// WithTimeLimit caps the wall-clock time of the solve. Every backend
// honors it: the deadline is checked at the same cadence as context
// cancellation (once per annealing run, sweep, offspring, decomposition
// round, or a few dozen branch-and-bound nodes), and on expiry the
// best-so-far result is returned with Stopped == StopTimeLimit and a nil
// error. A context that carries an earlier deadline still wins.
func WithTimeLimit(d time.Duration) Option { return func(c *config) { c.timeLimit = d } }

// WithNodeLimit caps the branch-and-bound nodes of the exact solver.
func WithNodeLimit(n int) Option { return func(c *config) { c.nodeLimit = n } }

// WithProgress streams a per-iteration snapshot (iteration number, best
// cost, feasible ratio, ‖λ‖) to the callback. The callback runs on the
// solving goroutine; keep it cheap. Combined with a cancellable context it
// enables responsive dashboards and custom stopping rules.
func WithProgress(f func(Progress)) Option { return func(c *config) { c.progress = f } }

// WithCheckpoint invokes f whenever the solve finds a new best feasible
// assignment, with the decision-bit assignment and its cost. Like
// WithProgress it observes without changing the solve (and is likewise
// excluded from OptionsFingerprint). The callback runs on the solving
// goroutine — and, for the saim backend's replica pool, concurrently
// from several goroutines, each reporting its own replica's
// improvements; synchronize and keep a best-cost guard if you aggregate.
// The slice passed to f is freshly allocated per call and may be
// retained. Honored by the saim backend on every model form and by the
// penalty backend; the service's durable mode uses it to journal
// crash-recovery checkpoints.
func WithCheckpoint(f func(assignment []int, cost float64)) Option {
	return func(c *config) { c.checkpoint = f }
}

// WithTargetCost stops the solve early as soon as a feasible assignment
// reaches cost ≤ target; the result reports Stopped == StopTarget.
func WithTargetCost(target float64) Option {
	return func(c *config) { t := target; c.targetCost = &t }
}

// WithPatience stops the solve after k consecutive iterations without an
// improvement of the best feasible cost; the result reports
// Stopped == StopPatience.
func WithPatience(k int) Option { return func(c *config) { c.patience = k } }

// WithSubproblemSize sets the number of variables the decomposition
// meta-solver ("decomp") optimizes per subproblem (default 256). Larger
// subproblems see more of the energy landscape per inner solve; smaller
// ones iterate faster. Other backends ignore it.
func WithSubproblemSize(k int) Option { return func(c *config) { c.subSize = k } }

// WithInnerSolver names the registered backend the decomposition
// meta-solver runs on each extracted subproblem (default "saim"). The
// inner solver must accept unconstrained models — subproblems arrive with
// the frozen complement already folded into their linear terms. Other
// backends ignore it.
func WithInnerSolver(name string) Option { return func(c *config) { c.innerSolver = name } }

// WithRounds caps the decomposition meta-solver's round count; zero (the
// default) iterates until convergence — TabuTenure+1 consecutive rounds
// in which no subproblem improved the global energy. Other backends
// ignore it.
func WithRounds(k int) Option { return func(c *config) { c.rounds = k } }

// WithTabuTenure sets how many rounds a just-optimized variable is
// excluded from the decomposition meta-solver's subproblem selection
// (default 1), steering consecutive rounds toward different regions.
// Zero disables tabu. Other backends ignore it.
func WithTabuTenure(rounds int) Option {
	return func(c *config) { t := rounds; c.tabuTenure = &t }
}

// WithRacers names the registered backends the "race" meta-solver runs
// concurrently on the model (default: every registered backend that
// accepts the model's form, excluding meta-solvers). Other backends
// ignore it.
func WithRacers(names ...string) Option {
	return func(c *config) { c.racers = append([]string(nil), names...) }
}

// WithInitial warm-starts the solve from the given assignment over the
// decision variables (length N, entries 0/1). A feasible warm start seeds
// the best-so-far, so the result is never worse than the assignment
// supplied, and one that already meets WithTargetCost ends the solve at 0
// iterations. For the saim backend (every model form) and the penalty
// backend that is all it does: every annealing run starts from a random
// state, as the β ramp from 0 would erase an installed one in its first
// sweep, so a warm solve runs exactly the cold solve with the same seed,
// a sample replacing the seed (and reaching WithCheckpoint) only when
// strictly better. That holds for WithSweepsPerRun(1) too, although its
// one sweep runs at βmax and could have felt an installed state. Parallel
// tempering seeds its coldest replica; the GA injects the repaired
// assignment into its initial population. The greedy and exact backends
// ignore it. The slice is not retained or mutated.
func WithInitial(assignment []int) Option {
	return func(c *config) { c.initial = append([]int(nil), assignment...) }
}

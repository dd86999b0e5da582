package saim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/ga"
	"github.com/ising-machines/saim/internal/greedy"
	"github.com/ising-machines/saim/internal/hoim"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/mkp"
	"github.com/ising-machines/saim/internal/pt"
	"github.com/ising-machines/saim/internal/qkp"
)

// deadline applies WithTimeLimit by deriving a context with the configured
// wall-clock deadline. The backends already check their context at every
// cancellation point, so the deadline is enforced at exactly that cadence
// with no new hot-path cost. The returned stamp rewrites a StopCancelled
// caused by the expiring deadline — rather than by the caller — into
// StopTimeLimit, so results report the true stop reason.
func deadline(ctx context.Context, cfg config) (context.Context, context.CancelFunc, func(StopReason) StopReason) {
	if cfg.timeLimit <= 0 {
		return ctx, func() {}, func(s StopReason) StopReason { return s }
	}
	parent := ctx
	dctx, cancel := context.WithTimeout(ctx, cfg.timeLimit)
	stamp := func(s StopReason) StopReason {
		if s == StopCancelled && parent.Err() == nil && errors.Is(dctx.Err(), context.DeadlineExceeded) {
			return StopTimeLimit
		}
		return s
	}
	return dctx, cancel, stamp
}

// progressAdapter bridges an internal core.ProgressInfo stream to the
// public Progress callback.
func progressAdapter(name string, f func(Progress)) func(core.ProgressInfo) {
	if f == nil {
		return nil
	}
	return func(p core.ProgressInfo) {
		ratio := 0.0
		if p.Samples > 0 {
			ratio = 100 * float64(p.FeasibleCount) / float64(p.Samples)
		}
		f(Progress{
			Solver:        name,
			Iteration:     p.Iteration,
			Iterations:    p.Total,
			BestCost:      p.BestCost,
			FeasibleRatio: ratio,
			LambdaNorm:    p.LambdaNorm,
			Sweeps:        p.Sweeps,
		})
	}
}

// requireForm returns a uniform error when a solver is handed a model form
// it does not accept.
func requireForm(s Solver, m *Model) error {
	if m == nil {
		return fmt.Errorf("saim: %s: nil model", s.Name())
	}
	if !s.Accepts(m.form) {
		return fmt.Errorf("saim: solver %q does not accept %v models", s.Name(), m.form)
	}
	return nil
}

// heuristicPenalty returns the paper's P = α·d·N penalty weight for the
// model, delegating to the same helper the saim backend's core loop uses
// so every backend prices constraints identically.
func heuristicPenalty(m *Model, alpha float64) float64 {
	return core.HeuristicPenalty(m.inner, alpha)
}

// checkpointAdapter bridges an internal best-so-far stream to the public
// WithCheckpoint callback. The internal engines pass live bit buffers;
// fromBits copies into a fresh []int, making the public slice safe to
// retain.
func checkpointAdapter(f func(assignment []int, cost float64)) func(ising.Bits, float64) {
	if f == nil {
		return nil
	}
	return func(best ising.Bits, cost float64) {
		f(fromBits(best), cost)
	}
}

// initialBits validates a WithInitial assignment against the model (length
// and 0/1 entries), returning nil when no warm start was requested.
func initialBits(m *Model, cfg config) (ising.Bits, error) {
	if cfg.initial == nil {
		return nil, nil
	}
	return toBits(cfg.initial, m.n)
}

// ---------------------------------------------------------------- saim ---

// saimSolver is the paper's self-adaptive Ising machine (Algorithm 1). It
// accepts every model form: the core engine runs constrained models and
// unconstrained QUBOs (an empty constraint system, so plain multi-run
// annealing), and the higher-order machine runs polynomial models.
type saimSolver struct{}

func (*saimSolver) Name() string        { return "saim" }
func (*saimSolver) Accepts(f Form) bool { return true }

func (s *saimSolver) Solve(ctx context.Context, m *Model, opts ...Option) (*Result, error) {
	if err := requireForm(s, m); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	ctx, cancel, stamp := deadline(ctx, cfg)
	defer cancel()
	var (
		res *Result
		err error
	)
	if m.form == FormHighOrder {
		if cfg.replicas > 1 {
			return nil, fmt.Errorf("saim: WithReplicas is only supported for quadratic models (model form %v)", m.form)
		}
		res, err = s.solveHighOrder(ctx, m, cfg)
	} else {
		res, err = s.solveQuadratic(ctx, m, cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Stopped = stamp(res.Stopped)
	return res, nil
}

// coreOptions lowers the shared options onto the core engine's.
func coreOptions(name string, m *Model, cfg config) (core.Options, error) {
	init, err := initialBits(m, cfg)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Alpha:        cfg.alpha,
		P:            cfg.penalty,
		Eta:          cfg.eta,
		Iterations:   cfg.iterations,
		SweepsPerRun: cfg.sweepsPerRun,
		BetaMax:      cfg.betaMax,
		Seed:         cfg.seed,
		Machine:      cfg.machine,
		Packed:       cfg.packed,
		Progress:     progressAdapter(name, cfg.progress),
		TargetCost:   cfg.targetCost,
		Patience:     cfg.patience,
		Initial:      init,
		Checkpoint:   checkpointAdapter(cfg.checkpoint),
	}, nil
}

// solveQuadratic runs Algorithm 1 on the core engine. Unconstrained
// models keep their own default budget of 100 runs.
func (s *saimSolver) solveQuadratic(ctx context.Context, m *Model, cfg config) (*Result, error) {
	o, err := coreOptions("saim", m, cfg)
	if err != nil {
		return nil, err
	}
	if m.form == FormUnconstrained {
		o.Iterations = orDefault(o.Iterations, 100)
	}
	var res *core.Result
	if cfg.replicas > 1 {
		res, err = core.SolveParallelContext(ctx, m.inner, o, cfg.replicas)
	} else {
		res, err = core.SolveContext(ctx, m.inner, o)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Solver:        "saim",
		Assignment:    fromBits(res.Best),
		Cost:          res.BestCost,
		FeasibleRatio: res.FeasibleRatio(),
		Penalty:       res.P,
		Sweeps:        res.TotalSweeps,
		Iterations:    res.Iterations,
		Lambda:        append([]float64(nil), res.Lambda...),
		Stopped:       res.Stopped,
	}, nil
}

func (s *saimSolver) solveHighOrder(ctx context.Context, m *Model, cfg config) (*Result, error) {
	init, err := initialBits(m, cfg)
	if err != nil {
		return nil, err
	}
	res, err := hoim.SolveConstrainedContext(ctx, m.hobj, m.hcons, 1e-9, hoim.Options{
		P:            cfg.penalty,
		Eta:          cfg.eta,
		Iterations:   cfg.iterations,
		SweepsPerRun: cfg.sweepsPerRun,
		BetaMax:      cfg.betaMax,
		Seed:         cfg.seed,
		Progress:     progressAdapter("saim", cfg.progress),
		TargetCost:   cfg.targetCost,
		Patience:     cfg.patience,
		Initial:      init,
		Checkpoint:   checkpointAdapter(cfg.checkpoint),
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Solver:     "saim",
		Cost:       res.BestCost,
		Sweeps:     res.TotalSweeps,
		Iterations: res.Iterations,
		Lambda:     append([]float64(nil), res.Lambda...),
		Stopped:    res.Stopped,
	}
	if res.Iterations > 0 {
		out.FeasibleRatio = 100 * float64(res.FeasibleCount) / float64(res.Iterations)
	}
	if res.Best != nil {
		out.Assignment = fromBits(res.Best)
	}
	return out, nil
}

// ------------------------------------------------------------- penalty ---

// penaltySolver is the classical fixed-P penalty method: multi-run
// annealing on E = f + P‖g‖² with no multiplier adaptation — the baseline
// SAIM is compared against throughout the paper. It runs the saim
// backend's engine with η pinned to 0.
type penaltySolver struct{}

func (*penaltySolver) Name() string        { return "penalty" }
func (*penaltySolver) Accepts(f Form) bool { return f == FormConstrained }

func (s *penaltySolver) Solve(ctx context.Context, m *Model, opts ...Option) (*Result, error) {
	if err := requireForm(s, m); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	o, err := coreOptions("penalty", m, cfg)
	if err != nil {
		return nil, err
	}
	if o.P == 0 {
		o.P = heuristicPenalty(m, orDefaultF(cfg.alpha, 2))
	}
	if o.P <= 0 {
		return nil, fmt.Errorf("saim: penalty weight must be positive, got %v", o.P)
	}
	ctx, cancel, stamp := deadline(ctx, cfg)
	defer cancel()
	res, err := core.SolvePenaltyContext(ctx, m.inner, o)
	if err != nil {
		return nil, err
	}
	return &Result{
		Solver:        "penalty",
		Assignment:    fromBits(res.Best),
		Cost:          res.BestCost,
		FeasibleRatio: res.FeasibleRatio(),
		Penalty:       res.P,
		Sweeps:        res.TotalSweeps,
		Iterations:    res.Iterations,
		Stopped:       stamp(res.Stopped),
	}, nil
}

// ------------------------------------------------------------------ pt ---

// ptSolver is parallel tempering (replica exchange) on the penalty energy,
// the PT-DA baseline of the paper's Tables III/IV. Without λ adaptation it
// needs a penalty weight well above the critical value, so its default is
// the aggressive P = 100·d·N unless WithPenalty overrides it.
type ptSolver struct{}

func (*ptSolver) Name() string        { return "pt" }
func (*ptSolver) Accepts(f Form) bool { return f == FormConstrained }

func (s *ptSolver) Solve(ctx context.Context, m *Model, opts ...Option) (*Result, error) {
	if err := requireForm(s, m); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	pw := cfg.penalty
	if pw == 0 {
		pw = heuristicPenalty(m, orDefaultF(cfg.alpha, 100))
	}
	if pw <= 0 {
		return nil, fmt.Errorf("saim: penalty weight must be positive, got %v", pw)
	}
	replicas := orDefault(cfg.replicas, 26)
	// Match the total sample budget of an equivalent SAIM solve: spread
	// iterations × sweeps across the replica ladder.
	sweeps := orDefault(cfg.iterations, 2000) * orDefault(cfg.sweepsPerRun, 1000) / replicas
	if sweeps < 1 {
		sweeps = 1
	}
	init, err := initialBits(m, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel, stamp := deadline(ctx, cfg)
	defer cancel()
	res, err := pt.SolvePenaltyContext(ctx, m.inner, pw, pt.Options{
		Replicas:    replicas,
		Sweeps:      sweeps,
		BetaMax:     orDefaultF(cfg.betaMax, 10),
		SampleEvery: 10,
		Seed:        cfg.seed,
		Machine:     cfg.machine,
		Progress:    progressAdapter("pt", cfg.progress),
		TargetCost:  cfg.targetCost,
		Initial:     init,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Solver:        "pt",
		Assignment:    fromBits(res.Best),
		Cost:          res.BestCost,
		FeasibleRatio: res.FeasibleRatio(),
		Penalty:       res.P,
		Sweeps:        res.TotalSweeps,
		Iterations:    res.SampleCount,
		Stopped:       stamp(res.Stopped),
	}, nil
}

// -------------------------------------------------- knapsack extraction ---

// nearInt reports the nearest integer of v and whether v is close enough
// to it to be treated as exact integer data.
func nearInt(v float64) (int, bool) {
	r := math.Round(v)
	if math.Abs(v-r) > 1e-6*math.Max(1, math.Abs(v)) {
		return 0, false
	}
	return int(r), true
}

// asQKP extracts a quadratic knapsack instance from a constrained model:
// one ≤ constraint, integer non-negative values/weights, and a
// value-adding (non-positive) quadratic objective. The combinatorial
// backends (ga, greedy, exact) operate on this integer form.
func (m *Model) asQKP() (*qkp.Instance, error) {
	if m.form != FormConstrained {
		return nil, fmt.Errorf("saim: %v model is not a quadratic knapsack", m.form)
	}
	if m.sys.M() != 1 {
		return nil, fmt.Errorf("saim: quadratic knapsack needs exactly one constraint, model has %d", m.sys.M())
	}
	c := m.sys.Cons[0]
	if c.Sense != constraint.LE {
		return nil, fmt.Errorf("saim: quadratic knapsack needs a ≤ constraint")
	}
	n := m.n
	inst := &qkp.Instance{
		Name: "model",
		N:    n,
		H:    make([]int, n),
		A:    make([]int, n),
		W:    make([][]int, n),
	}
	for i := range inst.W {
		inst.W[i] = make([]int, n)
	}
	b, ok := nearInt(c.B)
	if !ok || b < 0 {
		return nil, fmt.Errorf("saim: knapsack capacity %v is not a non-negative integer", c.B)
	}
	inst.B = b
	pairs := 0
	for i := 0; i < n; i++ {
		w, ok := nearInt(c.A[i])
		if !ok || w <= 0 {
			return nil, fmt.Errorf("saim: knapsack weight %v at %d is not a positive integer", c.A[i], i)
		}
		inst.A[i] = w
		h, ok := nearInt(-m.rawObj.C[i])
		if !ok || h < 0 {
			return nil, fmt.Errorf("saim: item value %v at %d is not a non-negative integer (combinatorial backends need knapsack form)", -m.rawObj.C[i], i)
		}
		inst.H[i] = h
		for j := i + 1; j < n; j++ {
			q := -2 * m.rawObj.Q.At(i, j)
			if q == 0 {
				continue
			}
			v, ok := nearInt(q)
			if !ok || v < 0 {
				return nil, fmt.Errorf("saim: pair value %v at (%d,%d) is not a non-negative integer", q, i, j)
			}
			inst.W[i][j] = v
			inst.W[j][i] = v
			pairs++
		}
	}
	if n > 1 {
		inst.Density = float64(pairs) / float64(n*(n-1)/2)
	}
	return inst, inst.Validate()
}

// asMKP extracts a multidimensional knapsack instance from a constrained
// model: a linear objective and ≥1 integer ≤ constraints.
func (m *Model) asMKP() (*mkp.Instance, error) {
	if m.form != FormConstrained {
		return nil, fmt.Errorf("saim: %v model is not a knapsack", m.form)
	}
	n := m.n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.rawObj.Q.At(i, j) != 0 {
				return nil, fmt.Errorf("saim: objective has a quadratic term at (%d,%d); only single-constraint quadratic knapsacks are supported by the combinatorial backends", i, j)
			}
		}
	}
	inst := &mkp.Instance{
		Name: "model",
		N:    n,
		M:    m.sys.M(),
		H:    make([]int, n),
		A:    make([][]int, m.sys.M()),
		B:    make([]int, m.sys.M()),
	}
	for i := 0; i < n; i++ {
		h, ok := nearInt(-m.rawObj.C[i])
		if !ok || h < 0 {
			return nil, fmt.Errorf("saim: item value %v at %d is not a non-negative integer (combinatorial backends need knapsack form)", -m.rawObj.C[i], i)
		}
		inst.H[i] = h
	}
	for k, c := range m.sys.Cons {
		if c.Sense != constraint.LE {
			return nil, fmt.Errorf("saim: constraint %d is a %v constraint; combinatorial backends need ≤ knapsack constraints", k, c.Sense)
		}
		b, ok := nearInt(c.B)
		if !ok || b < 0 {
			return nil, fmt.Errorf("saim: capacity %v of constraint %d is not a non-negative integer", c.B, k)
		}
		inst.B[k] = b
		inst.A[k] = make([]int, n)
		for j := 0; j < n; j++ {
			w, ok := nearInt(c.A[j])
			if !ok || w < 0 {
				return nil, fmt.Errorf("saim: weight %v at (%d,%d) is not a non-negative integer", c.A[j], k, j)
			}
			inst.A[k][j] = w
		}
	}
	return inst, inst.Validate()
}

// knapResult scores an integer-backend assignment through the model so the
// reported cost is exact in the caller's units.
func knapResult(m *Model, solver string, x ising.Bits, stopped StopReason, optimal bool) *Result {
	out := &Result{
		Solver:        solver,
		Cost:          math.Inf(1),
		FeasibleRatio: 100,
		Stopped:       stopped,
		Optimal:       optimal,
	}
	if x != nil {
		cost, feasible, err := m.Evaluate(fromBits(x))
		if err == nil && feasible {
			out.Assignment = fromBits(x)
			out.Cost = cost
		}
	}
	return out
}

// -------------------------------------------------------------- greedy ---

// greedySolver runs the constructive density heuristics: marginal-density
// insertion for single-constraint quadratic knapsacks, Chu–Beasley
// pseudo-utility packing for multidimensional ones. Deterministic and
// effectively instant; useful as a warm start and sanity baseline.
type greedySolver struct{}

func (*greedySolver) Name() string        { return "greedy" }
func (*greedySolver) Accepts(f Form) bool { return f == FormConstrained }

func (s *greedySolver) Solve(ctx context.Context, m *Model, opts ...Option) (*Result, error) {
	if err := requireForm(s, m); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	ctx, cancel, stamp := deadline(ctx, cfg)
	defer cancel()
	var (
		x         ising.Bits
		truncated bool
	)
	if qi, err := m.asQKP(); err == nil {
		x, truncated = greedy.QKPContext(ctx, qi)
	} else {
		mi, merr := m.asMKP()
		if merr != nil {
			return nil, merr
		}
		x, truncated = greedy.MKPContext(ctx, mi)
	}
	stopped := StopCompleted
	if truncated {
		stopped = stamp(StopCancelled)
	}
	return knapResult(m, "greedy", x, stopped, false), nil
}

// ------------------------------------------------------------------ ga ---

// gaSolver is the Chu–Beasley steady-state genetic algorithm (Table V
// baseline), generalized to any knapsack-structured model: the repair
// operator works off the linear capacity system while fitness is the exact
// (possibly quadratic) model objective.
type gaSolver struct{}

func (*gaSolver) Name() string        { return "ga" }
func (*gaSolver) Accepts(f Form) bool { return f == FormConstrained }

func (s *gaSolver) Solve(ctx context.Context, m *Model, opts ...Option) (*Result, error) {
	if err := requireForm(s, m); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	var knap *ga.Knapsack
	if qi, err := m.asQKP(); err == nil {
		knap = qkpKnapsack(qi)
	} else {
		mi, merr := m.asMKP()
		if merr != nil {
			return nil, merr
		}
		knap = ga.FromMKP(mi)
	}
	// The GA's internal cost frame is −value; a constant objective term
	// lives outside that frame, so shift the target and progress costs.
	target := cfg.targetCost
	prog := progressAdapter("ga", cfg.progress)
	if offset := m.rawObj.Const; offset != 0 {
		if target != nil {
			t := *target - offset
			target = &t
		}
		if prog != nil {
			inner := prog
			prog = func(p core.ProgressInfo) {
				if !math.IsInf(p.BestCost, 0) {
					p.BestCost += offset
				}
				inner(p)
			}
		}
	}
	init, err := initialBits(m, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel, stamp := deadline(ctx, cfg)
	defer cancel()
	// Map the shared iteration knob onto offspring count (one iteration ≈
	// 20 offspring, so budgets roughly match the annealing backends);
	// zero falls back to the GA's own default (10000 children). Patience
	// scales the same way.
	res, err := ga.SolveKnapsackContext(ctx, knap, ga.Options{
		Population: cfg.population,
		Children:   cfg.iterations * 20,
		Seed:       cfg.seed,
		Progress:   prog,
		TargetCost: target,
		Patience:   cfg.patience * 20,
		Initial:    init,
	})
	if err != nil {
		return nil, err
	}
	out := knapResult(m, "ga", res.Best, stamp(res.Stopped), false)
	out.Iterations = res.Children
	return out, nil
}

// qkpKnapsack adapts a QKP instance for the generic GA: repair is driven by
// optimistic value density (own value plus half of all pair values, per
// unit weight) while fitness is the exact quadratic value.
func qkpKnapsack(inst *qkp.Instance) *ga.Knapsack {
	util := make([]float64, inst.N)
	for j := 0; j < inst.N; j++ {
		opt := float64(inst.H[j])
		for i := 0; i < inst.N; i++ {
			opt += float64(inst.W[j][i]) / 2
		}
		util[j] = opt / float64(inst.A[j])
	}
	return &ga.Knapsack{
		N: inst.N, M: 1,
		A:     [][]int{inst.A},
		B:     []int{inst.B},
		Util:  util,
		Value: inst.Value,
	}
}

// --------------------------------------------------------------- exact ---

// exactSolver is certified branch and bound: LP-relaxation bounds for MKP
// models, an optimistic linearized Dantzig bound for single-constraint
// quadratic knapsacks. Result.Optimal reports whether optimality was proven
// within the node/time/context budget.
type exactSolver struct{}

func (*exactSolver) Name() string        { return "exact" }
func (*exactSolver) Accepts(f Form) bool { return f == FormConstrained }

func (s *exactSolver) Solve(ctx context.Context, m *Model, opts ...Option) (*Result, error) {
	if err := requireForm(s, m); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	// The exact search keeps its native per-node deadline (finer-grained
	// than the context checks) and additionally runs under the derived
	// deadline context, so both paths agree on when time is up.
	parent := ctx
	ctx, cancel, _ := deadline(ctx, cfg)
	defer cancel()
	opt := exact.Options{NodeLimit: cfg.nodeLimit, TimeLimit: cfg.timeLimit}
	begin := time.Now()
	var (
		x       ising.Bits
		optimal bool
	)
	if qi, err := m.asQKP(); err == nil {
		res, err := exact.SolveQKPContext(ctx, qi, opt)
		if err != nil {
			return nil, err
		}
		x, optimal = res.X, res.Optimal
	} else {
		mi, merr := m.asMKP()
		if merr != nil {
			return nil, merr
		}
		res, err := exact.SolveMKPContext(ctx, mi, opt)
		if err != nil {
			return nil, err
		}
		x, optimal = res.X, res.Optimal
	}
	// An optimality proof outranks a deadline that expired just after the
	// search finished; otherwise the parent's cancellation wins over the
	// derived deadline, and a truncation with neither (node limit) still
	// reports completion. The elapsed-time check backs up ctx.Err():
	// the search's own wall-clock cutoff can truncate an instant before
	// the context timer fires.
	stopped := StopCompleted
	switch {
	case optimal:
	case parent.Err() != nil:
		stopped = StopCancelled
	case cfg.timeLimit > 0 && (ctx.Err() != nil || time.Since(begin) >= cfg.timeLimit):
		stopped = StopTimeLimit
	case ctx.Err() != nil:
		stopped = StopCancelled
	}
	return knapResult(m, "exact", x, stopped, optimal), nil
}

// Package experiments regenerates every table and figure of the paper's
// evaluation section (Tables I–V, Figures 3–5). Each driver builds the
// instance suite deterministically from seeds, runs SAIM and the relevant
// baselines, and renders a report.Table mirroring the paper's layout.
//
// Two presets are provided:
//
//   - Reduced (default): smaller instances and sample budgets so the whole
//     suite completes in minutes on one CPU core. The *shape* of the
//     paper's results (who wins, the feasibility/accuracy trade-off, the
//     sample-budget gap) is preserved; absolute sizes are not.
//   - Paper: the paper's N, run counts and MCS budgets (Table I). On a
//     single core this takes many hours; use it selectively.
//
// EXPERIMENTS.md in the repository root records paper-vs-measured numbers
// for every experiment.
package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/internal/stats"
)

// Preset selects an experiment scale.
type Preset int

const (
	// Reduced runs shrunken instances and budgets (minutes on one core).
	Reduced Preset = iota
	// Paper runs the paper's full instance sizes and budgets.
	Paper
	// Smoke runs tiny configurations for tests and CI.
	Smoke
)

// String implements fmt.Stringer.
func (p Preset) String() string {
	switch p {
	case Reduced:
		return "reduced"
	case Paper:
		return "paper"
	case Smoke:
		return "smoke"
	default:
		return fmt.Sprintf("Preset(%d)", int(p))
	}
}

// ParsePreset converts a CLI string into a Preset.
func ParsePreset(s string) (Preset, error) {
	switch s {
	case "reduced", "":
		return Reduced, nil
	case "paper":
		return Paper, nil
	case "smoke":
		return Smoke, nil
	default:
		return Reduced, fmt.Errorf("experiments: unknown preset %q (want reduced, paper, or smoke)", s)
	}
}

// Config carries the cross-experiment knobs.
type Config struct {
	// Preset selects the scale.
	Preset Preset
	// Seed offsets all instance and solver seeds; the default 0 matches
	// the published EXPERIMENTS.md numbers.
	Seed uint64
	// Verbose enables per-instance progress lines on stderr.
	Verbose bool
	// Ctx, when non-nil, cancels the long-running solver loops inside the
	// experiment drivers at their next annealing-run boundary (cmd/saimexp
	// wires Ctrl-C here). Cancelled drivers report partial results.
	Ctx context.Context
}

// Context returns the configured context, defaulting to Background.
func (c Config) Context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// qkpBudget bundles the per-preset QKP experiment parameters (paper
// Table I row "QKP" for the Paper preset).
type qkpBudget struct {
	n         int // items per instance
	instances int // instances per density class
	runs      int // SAIM iterations = penalty SA runs (equal budget)
	sweeps    int // MCS per run
	longRuns  int // penalty-method long runs ("10 SA runs of 2e5 MCS")
	longMCS   int // MCS per long run
	ptRep     int // PT replicas
	ptSweeps  int // PT sweeps per replica
	betaMax   float64
	eta       float64
	alpha     float64
}

func qkpBudgetFor(p Preset, paperN int) qkpBudget {
	switch p {
	case Paper:
		return qkpBudget{
			n: paperN, instances: 10, runs: 2000, sweeps: 1000,
			longRuns: 10, longMCS: 200000, ptRep: 26, ptSweeps: 75000,
			betaMax: 10, eta: 20, alpha: 2,
		}
	case Smoke:
		return qkpBudget{
			n: 16, instances: 2, runs: 60, sweeps: 120,
			longRuns: 3, longMCS: 2000, ptRep: 4, ptSweeps: 600,
			betaMax: 10, eta: 20, alpha: 2,
		}
	default: // Reduced
		n := 40
		if paperN >= 200 {
			n = 60
		}
		if paperN >= 300 {
			n = 80
		}
		// η = 80 rather than the paper's 20, and 600 iterations: reduced
		// instances keep the paper's P<Pc gap but compress the budget, so
		// the λ transient must be crossed faster; dense (d ≥ 75%) classes
		// need the full 600×η=80 combination (see EXPERIMENTS.md).
		return qkpBudget{
			n: n, instances: 4, runs: 600, sweeps: 300,
			longRuns: 6, longMCS: 20000, ptRep: 13, ptSweeps: 6000,
			betaMax: 10, eta: 80, alpha: 2,
		}
	}
}

// instanceSeed derives the deterministic generator seed for an instance.
func instanceSeed(family string, n int, klass, id int, offset uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, b := range []byte(family) {
		mix(uint64(b))
	}
	mix(uint64(n))
	mix(uint64(klass))
	mix(uint64(id))
	mix(offset)
	return h
}

// qkpReference computes the reference optimum for accuracy reporting: exact
// B&B when it finishes within the node budget, otherwise the best cost any
// solver has produced (best-known convention). It returns the cost (negative)
// and whether it is a proven optimum.
func qkpReference(ctx context.Context, inst *qkp.Instance, fallback ...float64) (float64, bool) {
	limit := 3_000_000
	if inst.N > 60 {
		limit = 1_200_000
	}
	res, err := exact.SolveQKPContext(ctx, inst, exact.Options{NodeLimit: limit})
	best := math.Inf(1)
	if err == nil {
		best = res.Cost
		if res.Optimal {
			return best, true
		}
	}
	for _, f := range fallback {
		if f < best {
			best = f
		}
	}
	return best, false
}

// saimStats extracts the paper's per-instance SAIM metrics from a trace:
// best accuracy, mean accuracy over feasible samples, feasible ratio (%),
// and optimality ratio (% of feasible samples hitting OPT).
type saimStats struct {
	BestAcc    float64
	AvgAcc     float64
	FeasPct    float64
	OptimalPct float64
}

func statsFromTrace(tr *core.Trace, opt float64) saimStats {
	var feasAcc []float64
	optCount := 0
	for i, c := range tr.Cost {
		if !tr.Feasible[i] {
			continue
		}
		feasAcc = append(feasAcc, qkp.Accuracy(c, opt))
		if c <= opt+1e-9 {
			optCount++
		}
	}
	out := saimStats{}
	if len(feasAcc) == 0 {
		return out
	}
	out.BestAcc = stats.Max(feasAcc)
	out.AvgAcc = stats.Mean(feasAcc)
	out.FeasPct = 100 * float64(len(feasAcc)) / float64(len(tr.Cost))
	out.OptimalPct = 100 * float64(optCount) / float64(len(feasAcc))
	return out
}

// accuracyOf maps a possibly-absent cost to the paper's accuracy metric,
// returning NaN when no feasible solution exists.
func accuracyOf(cost, opt float64) float64 {
	if math.IsInf(cost, 1) {
		return math.NaN()
	}
	return qkp.Accuracy(cost, opt)
}

// feasibleCosts returns the costs of a trace's feasible samples, in run
// order.
func feasibleCosts(tr *core.Trace) []float64 {
	var out []float64
	for k, c := range tr.Cost {
		if tr.Feasible[k] {
			out = append(out, c)
		}
	}
	return out
}

// meanAccuracy averages accuracies of a feasible-cost list (NaN if empty).
func meanAccuracy(costs []float64, opt float64) float64 {
	if len(costs) == 0 {
		return math.NaN()
	}
	acc := make([]float64, len(costs))
	for i, c := range costs {
		acc[i] = qkp.Accuracy(c, opt)
	}
	return stats.Mean(acc)
}

// buildQKP constructs the SAIM problem for an instance with the paper's
// binary slack encoding.
func buildQKP(inst *qkp.Instance) *core.Problem {
	return inst.ToProblem(constraint.Binary)
}

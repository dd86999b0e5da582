package service

import (
	"fmt"
	"math"
	"time"

	saim "github.com/ising-machines/saim"
)

// SolveOptions is the JSON wire form of a solve's option list — the shape
// cmd/saimserve accepts in submissions. Zero values mean "backend
// default", matching the functional options they lower onto.
type SolveOptions struct {
	// Alpha, Penalty, Eta are the paper's penalty/multiplier knobs.
	Alpha   float64 `json:"alpha,omitempty"`
	Penalty float64 `json:"penalty,omitempty"`
	Eta     float64 `json:"eta,omitempty"`
	// Iterations and SweepsPerRun budget the solve.
	Iterations   int `json:"iterations,omitempty"`
	SweepsPerRun int `json:"sweeps_per_run,omitempty"`
	// BetaMax is the final inverse temperature.
	BetaMax float64 `json:"beta_max,omitempty"`
	// Seed makes the solve reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// Machine forces the sweep kernel: "auto" (or empty), "dense",
	// "sparse".
	Machine string `json:"machine,omitempty"`
	// Replicas, Population size the pt/saim pool and the GA.
	Replicas   int `json:"replicas,omitempty"`
	Population int `json:"population,omitempty"`
	// TimeLimitMS caps wall-clock solve time in milliseconds (every
	// backend; Stopped reports "time-limit" on expiry).
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	// NodeLimit caps the exact solver's branch-and-bound nodes.
	NodeLimit int `json:"node_limit,omitempty"`
	// TargetCost stops the solve early at a feasible cost ≤ target.
	TargetCost *float64 `json:"target_cost,omitempty"`
	// Patience stops after this many stale iterations.
	Patience int `json:"patience,omitempty"`
	// Initial warm-starts the solve from a 0/1 assignment.
	Initial []int `json:"initial,omitempty"`
	// SubproblemSize, InnerSolver, Rounds, TabuTenure configure the
	// decomposition meta-solver.
	SubproblemSize int    `json:"subproblem_size,omitempty"`
	InnerSolver    string `json:"inner_solver,omitempty"`
	Rounds         int    `json:"rounds,omitempty"`
	TabuTenure     *int   `json:"tabu_tenure,omitempty"`
	// Racers names the field of the race meta-solver.
	Racers []string `json:"racers,omitempty"`
}

// maxTimeLimitMS is the longest time limit a time.Duration holds, in
// whole milliseconds; anything longer would wrap around when converted.
const maxTimeLimitMS = math.MaxInt64 / int64(time.Millisecond)

// Options lowers the wire form onto the functional option list. The
// returned TimeLimit (from TimeLimitMS) is reported separately so the
// manager can fold in its default; it is NOT included in the options.
func (o *SolveOptions) Options() ([]saim.Option, time.Duration, error) {
	var opts []saim.Option
	if o == nil {
		return nil, 0, nil
	}
	if o.Alpha != 0 {
		opts = append(opts, saim.WithAlpha(o.Alpha))
	}
	if o.Penalty != 0 {
		opts = append(opts, saim.WithPenalty(o.Penalty))
	}
	if o.Eta != 0 {
		opts = append(opts, saim.WithEta(o.Eta))
	}
	if o.Iterations != 0 {
		opts = append(opts, saim.WithIterations(o.Iterations))
	}
	if o.SweepsPerRun != 0 {
		opts = append(opts, saim.WithSweepsPerRun(o.SweepsPerRun))
	}
	if o.BetaMax != 0 {
		opts = append(opts, saim.WithBetaMax(o.BetaMax))
	}
	if o.Seed != 0 {
		opts = append(opts, saim.WithSeed(o.Seed))
	}
	switch o.Machine {
	case "", "auto":
	case "dense":
		opts = append(opts, saim.WithMachine(saim.MachineDense))
	case "sparse":
		opts = append(opts, saim.WithMachine(saim.MachineSparse))
	default:
		return nil, 0, fmt.Errorf("service: unknown machine kind %q (want auto, dense, or sparse)", o.Machine)
	}
	if o.Replicas != 0 {
		opts = append(opts, saim.WithReplicas(o.Replicas))
	}
	if o.Population != 0 {
		opts = append(opts, saim.WithPopulation(o.Population))
	}
	if o.TimeLimitMS < 0 {
		return nil, 0, fmt.Errorf("service: negative time limit %d ms", o.TimeLimitMS)
	}
	if o.TimeLimitMS > maxTimeLimitMS {
		return nil, 0, fmt.Errorf("service: time limit %d ms exceeds the longest duration (%d ms)", o.TimeLimitMS, maxTimeLimitMS)
	}
	if o.NodeLimit != 0 {
		opts = append(opts, saim.WithNodeLimit(o.NodeLimit))
	}
	if o.TargetCost != nil {
		opts = append(opts, saim.WithTargetCost(*o.TargetCost))
	}
	if o.Patience != 0 {
		opts = append(opts, saim.WithPatience(o.Patience))
	}
	if len(o.Initial) > 0 {
		opts = append(opts, saim.WithInitial(o.Initial))
	}
	if o.SubproblemSize != 0 {
		opts = append(opts, saim.WithSubproblemSize(o.SubproblemSize))
	}
	if o.InnerSolver != "" {
		opts = append(opts, saim.WithInnerSolver(o.InnerSolver))
	}
	if o.Rounds != 0 {
		opts = append(opts, saim.WithRounds(o.Rounds))
	}
	if o.TabuTenure != nil {
		opts = append(opts, saim.WithTabuTenure(*o.TabuTenure))
	}
	if len(o.Racers) > 0 {
		opts = append(opts, saim.WithRacers(o.Racers...))
	}
	return opts, time.Duration(o.TimeLimitMS) * time.Millisecond, nil
}

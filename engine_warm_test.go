package saim_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/testkit"
)

// optimumAndRunnerUp enumerates m's assignments and returns its optimum
// and the cheapest feasible assignment costing more than half a unit
// above it (testkit data are integers), each with its cost.
func optimumAndRunnerUp(t *testing.T, name string, m *saim.Model) (optX []int, opt float64, upX []int, up float64) {
	t.Helper()
	opt, up = math.Inf(1), math.Inf(1)
	x := make([]int, m.N())
	for mask := 0; mask < 1<<m.N(); mask++ {
		for i := range x {
			x[i] = mask >> i & 1
		}
		cost, feasible, err := m.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !feasible || cost >= up:
		case cost < opt-0.5:
			upX, up = optX, opt
			optX, opt = slices.Clone(x), cost
		case cost > opt+0.5:
			upX, up = slices.Clone(x), cost
		}
	}
	if upX == nil {
		t.Fatalf("%s: no feasible assignment above the optimum %v", name, opt)
	}
	return optX, opt, upX, up
}

// checkpoint is one WithCheckpoint call.
type checkpoint struct {
	assignment []int
	cost       float64
}

// TestEngineWarmStartIsColdSolvePlusSeed pins what a warm start is on the
// annealing engine: a feasible WithInitial seeds the best-so-far and
// changes nothing else. On every constrained and unconstrained testkit
// instance, one lane and 70 replicas (a packed group plus six one-lane
// tasks, or 70 one-lane tasks), dense and CSR kernels, with and without a
// target the warm assignment misses, the warm solve with seed s runs the
// cold solve with seed s: the same iterations, feasible ratio, sweeps,
// stop reason and multipliers. Its result is the cold best when that is
// strictly better than the warm cost and the warm assignment otherwise,
// and a one-lane solve checkpoints exactly the cold solve's improvements
// that beat the warm cost. A warm start that meets the target answers at
// 0 iterations.
func TestEngineWarmStartIsColdSolvePlusSeed(t *testing.T) {
	settings := []struct {
		name       string
		replicated bool
		opts       []saim.Option
	}{
		{"dense", false, []saim.Option{saim.WithMachine(saim.MachineDense)}},
		{"sparse", false, []saim.Option{saim.WithMachine(saim.MachineSparse)}},
		{"dense-x70", true, []saim.Option{saim.WithMachine(saim.MachineDense), saim.WithReplicas(70)}},
		{"sparse-x70", true, []saim.Option{saim.WithMachine(saim.MachineSparse), saim.WithReplicas(70)}},
		{"x70-unpacked", true, []saim.Option{saim.WithReplicas(70), saim.WithPackedReplicas(saim.PackedOff)}},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	// solve runs one saim solve; a one-lane solve also records its
	// checkpoints (replicas call WithCheckpoint concurrently).
	solve := func(name string, m *saim.Model, replicated bool, opts []saim.Option) (*saim.Result, []checkpoint) {
		var cks []checkpoint
		if !replicated {
			opts = append(slices.Clip(opts), saim.WithCheckpoint(func(a []int, cost float64) {
				cks = append(cks, checkpoint{a, cost})
			}))
		}
		res, err := saim.SolveModel(context.Background(), "saim", m, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, cks
	}
	instances, coldWon, seedWon := 0, 0, 0
	for _, suite := range []uint64{1, 2, 3} {
		for _, inst := range testkit.Suite(suite) {
			m := compiled(t, inst.Model)
			if m.Form() == saim.FormHighOrder {
				continue
			}
			instances++
			optX, opt, warm, warmCost := optimumAndRunnerUp(t, inst.Name, m)
			target := opt + 0.5
			for _, s := range settings {
				for seed := uint64(1); seed <= 3; seed++ {
					for _, targeted := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/seed%d/target=%v", inst.Name, s.name, seed, targeted)
						opts := append([]saim.Option{saim.WithSeed(seed), saim.WithIterations(4), saim.WithSweepsPerRun(20)}, s.opts...)
						if targeted {
							opts = append(opts, saim.WithTargetCost(target))
							if s.replicated {
								// A replica that reaches the target cancels
								// its siblings wherever they are, so a
								// replicated solve that stops early
								// reproduces only on one worker.
								runtime.GOMAXPROCS(1)
							}
						}
						cold, coldCks := solve(name, m, s.replicated, opts)
						got, gotCks := solve(name, m, s.replicated, append(opts, saim.WithInitial(warm)))
						runtime.GOMAXPROCS(prev)

						if got.Iterations != cold.Iterations || got.Sweeps != cold.Sweeps || got.Stopped != cold.Stopped ||
							math.Float64bits(got.FeasibleRatio) != math.Float64bits(cold.FeasibleRatio) {
							t.Errorf("%s: warm ran %d iterations, %d sweeps, %v%% feasible, stopped %v; cold %d, %d, %v%%, %v",
								name, got.Iterations, got.Sweeps, got.FeasibleRatio, got.Stopped,
								cold.Iterations, cold.Sweeps, cold.FeasibleRatio, cold.Stopped)
						}
						coldWins := !cold.Infeasible() && cold.Cost < warmCost
						// The pool reports the winning replica's λ; when
						// the seed wins, that is replica 0's, which a cold
						// solve reports only when it found nothing.
						if !s.replicated || coldWins || cold.Infeasible() {
							if !slices.EqualFunc(got.Lambda, cold.Lambda, func(a, b float64) bool {
								return math.Float64bits(a) == math.Float64bits(b)
							}) {
								t.Errorf("%s: warm λ %v, cold λ %v", name, got.Lambda, cold.Lambda)
							}
						}
						wantX, wantCost := warm, warmCost
						if coldWins {
							wantX, wantCost = cold.Assignment, cold.Cost
							coldWon++
						} else {
							seedWon++
						}
						if got.Cost != wantCost || !slices.Equal(got.Assignment, wantX) {
							t.Errorf("%s: warm result %v (cost %v), want %v (cost %v; cold %v, warm %v)",
								name, got.Assignment, got.Cost, wantX, wantCost, cold.Cost, warmCost)
						}
						if s.replicated {
							continue
						}
						var wantCks []checkpoint
						for _, c := range coldCks {
							if c.cost < warmCost {
								wantCks = append(wantCks, c)
							}
						}
						if !slices.EqualFunc(gotCks, wantCks, func(a, b checkpoint) bool {
							return a.cost == b.cost && slices.Equal(a.assignment, b.assignment)
						}) {
							t.Errorf("%s: warm checkpoints %v, want the cold ones below %v: %v", name, gotCks, warmCost, wantCks)
						}
					}
				}
				// A warm start that meets the target ends the solve before
				// its first run.
				name := inst.Name + "/" + s.name + "/warm-at-target"
				res, cks := solve(name, m, s.replicated, append([]saim.Option{saim.WithSeed(1), saim.WithIterations(4),
					saim.WithSweepsPerRun(20), saim.WithInitial(optX), saim.WithTargetCost(target)}, s.opts...))
				if res.Iterations != 0 || res.Sweeps != 0 || res.Stopped != saim.StopTarget ||
					res.Cost != opt || !slices.Equal(res.Assignment, optX) || len(cks) != 0 {
					t.Errorf("%s: %d iterations, %d sweeps, stopped %v, cost %v, %d checkpoints; want 0, 0, %v, %v, none",
						name, res.Iterations, res.Sweeps, res.Stopped, res.Cost, len(cks), saim.StopTarget, opt)
				}
			}
		}
	}
	if instances != 27 {
		t.Fatalf("covered %d instances, want Suite(1)–(3)'s 27 quadratic ones", instances)
	}
	if coldWon == 0 || seedWon == 0 {
		t.Fatalf("the cold best won %d cases and the seed %d: both results must be exercised", coldWon, seedWon)
	}
}

// Benchmarks regenerating every table and figure of the paper's evaluation
// section at smoke scale (one bench per experiment — see DESIGN.md §3), plus
// the ablation micro-benchmarks for the design decisions of DESIGN.md §4.
//
// The benches use the Smoke preset so `go test -bench=.` finishes in
// minutes; `cmd/saimexp -preset reduced` (or `paper`) regenerates the
// full-scale artifacts.
package saim

import (
	"context"
	"fmt"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/experiments"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/lagrange"
	"github.com/ising-machines/saim/internal/maxcut"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

func smoke() experiments.Config { return experiments.Config{Preset: experiments.Smoke} }

// BenchmarkTable1 regenerates Table I (experiment parameters).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.TableI(smoke()); tb == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkTable2 regenerates Table II (SAIM vs penalty method, QKP).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table III (QKP N=200 class comparison).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates Table IV (QKP N=300 class comparison).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates Table V (MKP vs B&B and GA).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the Fig. 3 SAIM trace (QKP cost + λ).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4 (accuracy quartiles + MCS budgets).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the Fig. 5 SAIM trace (MKP cost + λ_m).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation micro-benchmarks (DESIGN.md §4) ---

func benchModel(n int, seed uint64) *ising.Model {
	inst := qkp.Generate(n, 0.5, 1, seed)
	prob := inst.ToProblem(constraint.Binary)
	return prob.Objective.ToIsing()
}

// BenchmarkReprogram measures the λ→bias reprogramming step of one SAIM
// iteration (BiasDelta + UpdateBiases), which must stay O(N·M) — not O(N²).
func BenchmarkReprogram(b *testing.B) {
	inst := qkp.Generate(100, 0.5, 1, 3)
	prob := inst.ToProblem(constraint.Binary)
	model := prob.Objective.ToIsing()
	m := pbit.New(model, rng.New(1))
	lam := lagrange.New(prob.Ext.M(), 20)
	lam.Values[0] = 7
	delta := vecmat.NewVec(prob.Ext.NTotal)
	h := vecmat.NewVec(prob.Ext.NTotal)
	base := model.H.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lagrange.BiasDelta(delta, prob.Ext, lam)
		for k := range h {
			h[k] = base[k] - delta[k]
		}
		m.UpdateBiases(h)
	}
}

// BenchmarkSAIMIteration measures one full SAIM iteration (anneal + λ
// update) at the paper's per-run MCS budget on a reduced instance.
func BenchmarkSAIMIteration(b *testing.B) {
	inst := qkp.Generate(100, 0.5, 1, 3)
	prob := inst.ToProblem(constraint.Binary)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// One-iteration solve per loop: measures the steady-state cost of
		// an iteration without accumulating λ state across b.N.
		b.StartTimer()
		if _, err := core.Solve(prob, core.Options{
			Iterations: 1, SweepsPerRun: 1000, Eta: 20, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlackEncodings compares the three slack encodings' variable
// counts and solve cost on the same instance (DESIGN.md §4.3).
func BenchmarkSlackEncodings(b *testing.B) {
	inst := qkp.Generate(60, 0.5, 1, 9)
	for _, enc := range []constraint.SlackEncoding{constraint.Binary, constraint.Bounded, constraint.Unary} {
		b.Run(enc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prob := inst.ToProblem(enc)
				if _, err := core.Solve(prob, core.Options{
					Iterations: 10, SweepsPerRun: 100, Eta: 20, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnnealRun measures one complete annealing run (the paper's
// 1000-MCS unit of work) at N=100.
func BenchmarkAnnealRun(b *testing.B) {
	model := benchModel(100, 5)
	m := pbit.New(model, rng.New(1))
	sched := schedule.Linear{Start: 0, End: 10}
	final := ising.NewSpins(model.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AnnealInto(final, sched, 1000)
	}
}

// BenchmarkSolveAllocs guards the zero-allocation solve engine: run with
// -benchmem and divide B/op by the 50 iterations — the steady-state cost
// per SAIM iteration must amortize to zero (the residual B/op is per-solve
// setup only; the hard assertion lives in core's
// TestSolveSteadyStateZeroAllocs via testing.AllocsPerRun).
func BenchmarkSolveAllocs(b *testing.B) {
	inst := qkp.Generate(100, 0.5, 1, 3)
	prob := inst.ToProblem(constraint.Binary)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(prob, core.Options{
			Iterations: 50, SweepsPerRun: 10, Eta: 20, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveParallelPool measures the pooled replica solve: workers
// compile the energy once and reuse one long-lived machine per worker
// across replicas (DESIGN.md §5.4).
func BenchmarkSolveParallelPool(b *testing.B) {
	inst := qkp.Generate(60, 0.5, 1, 9)
	prob := inst.ToProblem(constraint.Binary)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveParallel(prob, core.Options{
			Iterations: 5, SweepsPerRun: 100, Eta: 20, Seed: uint64(i),
		}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation drivers (DESIGN.md §4) as benches ---

// BenchmarkAblationEta regenerates the η-sensitivity ablation.
func BenchmarkAblationEta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEta(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlpha regenerates the α-sensitivity ablation.
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAlpha(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEncoding regenerates the slack-encoding ablation.
func BenchmarkAblationEncoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEncoding(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCapacity regenerates the MKP capacity-reduction ablation.
func BenchmarkAblationCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCapacity(smoke()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSparseVsDense times one annealing run of the dense and
// the CSR machine — 100 sweeps, β from 0 to 10, the ramp serve jobs run —
// on a normalized N = 200 QKP objective at each pair density from 5% to
// 90%. Where the CSR run stops being the faster one sets the
// auto-selection threshold of DESIGN.md §5.2. It anneals rather than
// sweeping at one β: at β = 1 on the raw objective over 90% of the visits
// are saturated and about 3% flip, a regime no solve anneals through.
func BenchmarkSweepSparseVsDense(b *testing.B) {
	sched := schedule.Linear{Start: 0, End: 10}
	for _, d := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9} {
		obj := qkp.Generate(200, d, 1, 3).ToProblem(constraint.Binary).Objective
		obj.Normalize()
		model := obj.ToIsing()
		final := ising.NewSpins(model.N())
		for _, kind := range []struct {
			name string
			m    interface {
				AnnealInto(ising.Spins, schedule.Schedule, int)
			}
		}{
			{"dense", pbit.New(model, rng.New(1))},
			{"sparse", pbit.NewSparse(model, rng.New(1))},
		} {
			b.Run(fmt.Sprintf("d=%v/%s", d, kind.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kind.m.AnnealInto(final, sched, 100)
				}
			})
		}
	}
}

// jobModels builds the two serve job shapes through Builder, whose Model
// normalizes them exactly as a submitted job's model is: a max-cut on
// G(200, 3/199) with integer weights in [1, 10] (unconstrained, so a CSR
// machine sweeps it) and a QKP at N = 40, d = 0.5 (its capacity penalty
// makes J dense, so the dense machine sweeps it).
func jobModels(b *testing.B) map[string]*Model {
	g := maxcut.ErdosRenyi(200, 3.0/199, 10, 11)
	cut := NewBuilder(g.N)
	for _, e := range g.Edges {
		cut.Linear(e.U, -e.W).Linear(e.V, -e.W).Quadratic(e.U, e.V, 2*e.W)
	}
	inst := qkp.Generate(40, 0.5, 0, 12)
	knap := NewBuilder(inst.N).Density(inst.Density)
	weights := make([]float64, inst.N)
	for i := 0; i < inst.N; i++ {
		knap.Linear(i, -float64(inst.H[i]))
		for j := i + 1; j < inst.N; j++ {
			if w := inst.W[i][j]; w != 0 {
				knap.Quadratic(i, j, -float64(w))
			}
		}
		weights[i] = float64(inst.A[i])
	}
	knap.ConstrainLE(weights, float64(inst.B))
	models := map[string]*Model{}
	for name, bl := range map[string]*Builder{"maxcut": cut, "qkp": knap} {
		m, err := bl.Model()
		if err != nil {
			b.Fatal(err)
		}
		models[name] = m
	}
	return models
}

// BenchmarkJobSolve times one SolveModel of each serve job shape at its
// serve budget (L3): the max-cut at 6 runs of 150 sweeps and βmax 10, the
// QKP at the paper's α = 2 with η = 80 over 60 runs of 100 sweeps. Both
// run on one scalar p-bit machine, so this is the scalar sweep in the
// regime serve jobs anneal through, from β = 0 to saturation.
func BenchmarkJobSolve(b *testing.B) {
	models := jobModels(b)
	for _, job := range []struct {
		name string
		opts []Option
	}{
		{"maxcut", []Option{WithIterations(6), WithSweepsPerRun(150), WithBetaMax(10)}},
		{"qkp", []Option{WithAlpha(2), WithEta(80), WithBetaMax(10), WithIterations(60), WithSweepsPerRun(100)}},
	} {
		b.Run(job.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := append([]Option{WithSeed(uint64(i) + 1)}, job.opts...)
				if _, err := SolveModel(context.Background(), "saim", models[job.name], opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

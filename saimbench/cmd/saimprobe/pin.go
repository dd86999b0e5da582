package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/saimbench/internal/work"
)

// pin regenerates the pinned references of every pool in work.PoolSpecs
// and writes them to path. A QKP gets exact branch and bound first, and a
// proof of optimality settles it; otherwise, and for every max-cut, the
// reference is the best cost of the bound search and the pool's long saim
// runs, recorded with their settings and seeds.
func pin(path string, log io.Writer) error {
	refs := work.Refs{
		Note: "Pinned references. Regenerate with `go run ./cmd/saimprobe --pin internal/work/refs.json` in saimbench/. " +
			"Costs are in the minimization frame: the negated knapsack value or cut weight.",
		Pools: map[string][]work.Ref{},
	}
	for _, spec := range work.PoolSpecs {
		for _, r := range spec.Instances() {
			if err := pinOne(&r, spec); err != nil {
				return fmt.Errorf("%s: %w", r.Name, err)
			}
			fmt.Fprintf(log, "%s: %v (%s)\n", r.Name, r.Cost, r.Provenance)
			refs.Pools[spec.Name] = append(refs.Pools[spec.Name], r)
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func pinOne(r *work.Ref, spec work.PoolSpec) error {
	best, bound := math.Inf(1), ""
	if r.Kind == "qkp" {
		ex, err := exact.SolveQKP(qkp.Generate(r.N, r.Density, 0, r.Seed), exact.Options{NodeLimit: spec.NodeLimit})
		if err != nil {
			return err
		}
		if ex.Optimal {
			r.Cost, r.Optimal = ex.Cost, true
			r.Provenance = fmt.Sprintf("exact branch and bound, proven optimal in %d nodes", ex.Nodes)
			return nil
		}
		best = ex.Cost
		bound = fmt.Sprintf("exact branch and bound stopped at its %d-node limit with %v; ", spec.NodeLimit, ex.Cost)
	}
	m, err := r.Model()
	if err != nil {
		return err
	}
	compiled, err := m.Compile()
	if err != nil {
		return err
	}
	l := spec.Long
	r.Provenance = bound
	for run := 0; run < spec.LongRuns; run++ {
		seed := work.Mix(r.Seed, 7, uint64(run))
		res, err := saim.SolveModel(context.Background(), "saim", compiled, l.Options(seed)...)
		if err != nil {
			return err
		}
		if res.Infeasible() {
			return fmt.Errorf("long saim run %d found no feasible assignment", run)
		}
		best = math.Min(best, res.Cost)
		r.Provenance += fmt.Sprintf("saim run with %d replicas x %d iterations x %d sweeps (alpha %g, eta %g, beta_max %g, seed %d): %v; ",
			max(l.Replicas, 1), l.Iterations, l.Sweeps, l.Alpha, l.Eta, l.BetaMax, seed, res.Cost)
	}
	r.Cost = best
	r.Provenance += "reference is the best of these"
	return nil
}

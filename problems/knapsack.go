package problems

import (
	"fmt"
	"slices"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/model"
)

// KnapsackSpec describes a 0–1 knapsack: maximize the total value of
// selected items (plus optional pairwise bonuses) subject to one or more
// capacity constraints. One capacity row is the classic knapsack; several
// rows make it multidimensional (MKP, the paper's Section IV.B family);
// pair values make it quadratic (QKP, Section IV.A).
type KnapsackSpec struct {
	// Values[j] is the value of item j.
	Values []float64
	// PairValues, when non-nil, is the symmetric n×n bonus matrix: picking
	// both i and j adds PairValues[i][j] (the diagonal must be zero).
	PairValues [][]float64
	// Weights[i][j] is the weight of item j in capacity constraint i.
	Weights [][]float64
	// Capacities[i] bounds constraint i: Σ_j Weights[i][j]·x_j ≤ Capacities[i].
	Capacities []float64
	// Density, when non-zero, is the pair-value density hint for the
	// paper's P = α·d·N penalty pricing.
	Density float64
}

// Validate checks dimensions and sign conventions.
func (s KnapsackSpec) Validate() error {
	n := len(s.Values)
	if n == 0 {
		return fmt.Errorf("problems: knapsack needs at least one item")
	}
	if len(s.Weights) == 0 || len(s.Weights) != len(s.Capacities) {
		return fmt.Errorf("problems: knapsack needs matching Weights rows (%d) and Capacities (%d), at least one each",
			len(s.Weights), len(s.Capacities))
	}
	for i, row := range s.Weights {
		if len(row) != n {
			return fmt.Errorf("problems: weights row %d has %d entries, want %d", i, len(row), n)
		}
		for j, w := range row {
			if w < 0 {
				return fmt.Errorf("problems: negative weight %v at (%d,%d)", w, i, j)
			}
		}
	}
	for i, b := range s.Capacities {
		if b < 0 {
			return fmt.Errorf("problems: negative capacity %v at %d", b, i)
		}
	}
	if s.PairValues != nil {
		if len(s.PairValues) != n {
			return fmt.Errorf("problems: pair-value matrix order %d, want %d", len(s.PairValues), n)
		}
		for i, row := range s.PairValues {
			if len(row) != n {
				return fmt.Errorf("problems: pair-value row %d has %d entries, want %d", i, len(row), n)
			}
			if row[i] != 0 {
				return fmt.Errorf("problems: pair-value diagonal %d must be zero", i)
			}
			for j := range row {
				if row[j] != s.PairValues[j][i] {
					return fmt.Errorf("problems: pair-value matrix not symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
	return nil
}

// KnapsackProblem is a built knapsack: the declarative model plus its
// decoder. Variables are the family "take"; capacity constraints are named
// "capacity" (single row) or "capacity[i]".
type KnapsackProblem struct {
	// Model is the declarative model; extend it freely before solving.
	Model *model.Model
	spec  KnapsackSpec
	x     model.Vars
}

// Knapsack builds the declarative model of the spec.
func Knapsack(spec KnapsackSpec) (*KnapsackProblem, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(spec.Values)
	m := model.New()
	x := m.Binary("take", n)
	terms := []model.Expr{model.Dot(spec.Values, x)}
	if spec.PairValues != nil {
		// The pair terms outnumber the rest; sizing the slice first spares
		// append's repeated regrowth copies of them.
		pairs := 0
		for i, row := range spec.PairValues {
			for _, v := range row[i+1:] {
				if v != 0 {
					pairs++
				}
			}
		}
		terms = slices.Grow(terms, pairs)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if v := spec.PairValues[i][j]; v != 0 {
					terms = append(terms, x[i].Times(x[j]).Mul(v))
				}
			}
		}
	}
	m.Maximize(model.Sum(terms...))
	for i, row := range spec.Weights {
		name := "capacity"
		if len(spec.Weights) > 1 {
			name = fmt.Sprintf("capacity[%d]", i)
		}
		m.Constrain(name, model.Dot(row, x).LE(spec.Capacities[i]))
	}
	if spec.Density != 0 {
		m.Density(spec.Density)
	}
	return &KnapsackProblem{Model: m, spec: spec, x: x}, nil
}

// Recommended returns the paper's solver settings for the family: the QKP
// settings (η=20, α=2, βmax=10) when pair values are present, the MKP
// settings (η=0.05, α=5, βmax=50) otherwise.
func (p *KnapsackProblem) Recommended() []saim.Option {
	if p.spec.PairValues != nil {
		return []saim.Option{saim.WithEta(20), saim.WithAlpha(2), saim.WithBetaMax(10)}
	}
	return []saim.Option{saim.WithEta(0.05), saim.WithAlpha(5), saim.WithBetaMax(50)}
}

// Selected returns the indices of the chosen items (nil when infeasible).
func (p *KnapsackProblem) Selected(sol *model.Solution) []int {
	if !sol.Feasible() {
		return nil
	}
	var out []int
	for i, v := range sol.Values("take") {
		if v == 1 {
			out = append(out, i)
		}
	}
	return out
}

// TotalValue returns the collected value of the solution, including pair
// bonuses (−Inf when infeasible).
func (p *KnapsackProblem) TotalValue(sol *model.Solution) float64 { return sol.Objective() }

package problems

import (
	"fmt"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/model"
)

// ShiftSpec describes a crew-selection shift scheduling problem: pick the
// cheapest crew of exactly CrewSize workers such that exactly
// RequiredPairs of the certified pairs work together. Certification
// requires two specific people simultaneously — a product term x_i·x_j —
// which makes the pair constraint genuinely quadratic and the model
// high-order (the capability the paper attributes to higher-order Ising
// machines).
type ShiftSpec struct {
	// Rates[i] is the hourly cost of worker i.
	Rates []float64
	// CrewSize is the exact number of workers on shift.
	CrewSize int
	// CertifiedPairs lists worker pairs that certify the shift when both
	// members are scheduled together.
	CertifiedPairs [][2]int
	// RequiredPairs is the exact number of certified pairs that must be
	// fully on shift (commonly 1).
	RequiredPairs int
}

// Validate checks dimensions and ranges.
func (s ShiftSpec) Validate() error {
	n := len(s.Rates)
	if n == 0 {
		return fmt.Errorf("problems: shift needs at least one worker")
	}
	if s.CrewSize < 1 || s.CrewSize > n {
		return fmt.Errorf("problems: crew size %d outside [1,%d]", s.CrewSize, n)
	}
	for i, p := range s.CertifiedPairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n || p[0] == p[1] {
			return fmt.Errorf("problems: bad certified pair %d: (%d,%d)", i, p[0], p[1])
		}
	}
	if s.RequiredPairs < 0 || s.RequiredPairs > len(s.CertifiedPairs) {
		return fmt.Errorf("problems: required pairs %d outside [0,%d]", s.RequiredPairs, len(s.CertifiedPairs))
	}
	return nil
}

// ShiftProblem is a built shift schedule: the declarative model plus its
// decoder. Variables are the family "onshift"; constraints are "crew"
// (exact headcount) and "certified" (exact certified-pair count, present
// only when the spec requires pairs).
type ShiftProblem struct {
	// Model is the declarative model; extend it freely before solving.
	Model *model.Model
	spec  ShiftSpec
	x     model.Vars
}

// ShiftScheduling builds the declarative model of the spec.
func ShiftScheduling(spec ShiftSpec) (*ShiftProblem, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := model.New()
	x := m.Binary("onshift", len(spec.Rates))
	m.Minimize(model.Dot(spec.Rates, x))
	m.Constrain("crew", x.Sum().EQ(float64(spec.CrewSize)))
	if len(spec.CertifiedPairs) > 0 {
		pairs := make([]model.Expr, len(spec.CertifiedPairs))
		for k, p := range spec.CertifiedPairs {
			pairs[k] = x[p[0]].Times(x[p[1]])
		}
		m.Constrain("certified", model.Sum(pairs...).EQ(float64(spec.RequiredPairs)))
	}
	return &ShiftProblem{Model: m, spec: spec, x: x}, nil
}

// Recommended returns solver settings suited to the high-order machine on
// small crews.
func (p *ShiftProblem) Recommended() []saim.Option {
	return []saim.Option{
		saim.WithPenalty(3), saim.WithEta(0.5),
		saim.WithIterations(300), saim.WithSweepsPerRun(200),
	}
}

// Crew returns the indices of the scheduled workers (nil when infeasible).
func (p *ShiftProblem) Crew(sol *model.Solution) []int {
	if !sol.Feasible() {
		return nil
	}
	var out []int
	for i, v := range sol.Values("onshift") {
		if v == 1 {
			out = append(out, i)
		}
	}
	return out
}

// TotalRate returns the crew's combined hourly cost (+Inf when
// infeasible).
func (p *ShiftProblem) TotalRate(sol *model.Solution) float64 { return sol.Objective() }

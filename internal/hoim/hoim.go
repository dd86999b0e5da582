// Package hoim implements a higher-order Ising machine: a p-bit-style
// Gibbs sampler over arbitrary pseudo-Boolean polynomials, together with a
// polynomial SAIM loop.
//
// The paper notes (Section II) that while standard Ising machines restrict
// f to quadratic and g to linear forms, "one could design a high-order IM
// supporting higher polynomial degrees for f and g" [Bybee et al., 19].
// This package is that extension: energies are sums of weighted monomials
// w·Π_{i∈S} x_i over binary variables, sampled with the same annealed
// Gibbs dynamics as package pbit but with ΔE oracles over the hypergraph
// of monomials. SolveConstrained runs Algorithm 1 with polynomial f and
// polynomial constraints g_k — the penalty ‖g‖² and the λᵀg terms are
// assembled symbolically, so quadratic (or higher) constraints work
// without auxiliary-variable quadratization.
package hoim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
)

// Term is one weighted monomial w·Π_{i∈Vars} x_i. Vars are distinct and
// sorted; an empty Vars list is a constant.
type Term struct {
	Vars []int
	W    float64
}

// Poly is a pseudo-Boolean polynomial over n binary variables, stored as a
// monomial list with an index from each variable to the terms touching it.
type Poly struct {
	n     int
	terms []Term
	// index[i] lists positions in terms whose monomial contains var i.
	index [][]int
	// key → term position, for coefficient merging.
	byKey map[string]int
}

// NewPoly returns the zero polynomial over n variables.
func NewPoly(n int) *Poly {
	if n <= 0 {
		panic("hoim: NewPoly requires n > 0")
	}
	return &Poly{n: n, index: make([][]int, n), byKey: map[string]int{}}
}

// N returns the number of variables.
func (p *Poly) N() int { return p.n }

// NumTerms returns the number of distinct monomials (constants included).
func (p *Poly) NumTerms() int { return len(p.terms) }

// Degree returns the largest monomial size (0 for a constant/zero poly).
func (p *Poly) Degree() int {
	d := 0
	for _, t := range p.terms {
		if len(t.Vars) > d {
			d = len(t.Vars)
		}
	}
	return d
}

func termKey(vars []int) string {
	b := make([]byte, 0, len(vars)*3)
	for _, v := range vars {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

// Add accumulates w·Π x_i for the given variable set. Duplicate variables
// within one monomial are idempotent (x² = x) and collapsed; repeated Add
// calls with the same monomial merge coefficients.
func (p *Poly) Add(w float64, vars ...int) {
	if w == 0 {
		return
	}
	uniq := append([]int(nil), vars...)
	sort.Ints(uniq)
	out := uniq[:0]
	for k, v := range uniq {
		if v < 0 || v >= p.n {
			panic(fmt.Sprintf("hoim: variable %d out of range [0,%d)", v, p.n))
		}
		if k > 0 && v == uniq[k-1] {
			continue // x_i^2 = x_i
		}
		out = append(out, v)
	}
	key := termKey(out)
	if pos, ok := p.byKey[key]; ok {
		p.terms[pos].W += w
		return
	}
	pos := len(p.terms)
	p.terms = append(p.terms, Term{Vars: append([]int(nil), out...), W: w})
	p.byKey[key] = pos
	for _, v := range out {
		p.index[v] = append(p.index[v], pos)
	}
}

// AddPoly accumulates scale·q onto p. The polynomials must share n.
func (p *Poly) AddPoly(scale float64, q *Poly) {
	if q.n != p.n {
		panic("hoim: AddPoly dimension mismatch")
	}
	for _, t := range q.terms {
		p.Add(scale*t.W, t.Vars...)
	}
}

// Clone returns a deep copy.
func (p *Poly) Clone() *Poly {
	out := NewPoly(p.n)
	out.AddPoly(1, p)
	return out
}

// Energy evaluates the polynomial at x.
func (p *Poly) Energy(x ising.Bits) float64 {
	if len(x) != p.n {
		panic("hoim: Energy dimension mismatch")
	}
	e := 0.0
	for _, t := range p.terms {
		on := true
		for _, v := range t.Vars {
			if x[v] == 0 {
				on = false
				break
			}
		}
		if on {
			e += t.W
		}
	}
	return e
}

// DeltaFlip returns E(x with bit i toggled) − E(x): the sum over monomials
// containing i whose other variables are all set, signed by the flip
// direction.
func (p *Poly) DeltaFlip(x ising.Bits, i int) float64 {
	acc := 0.0
	for _, pos := range p.index[i] {
		t := p.terms[pos]
		on := true
		for _, v := range t.Vars {
			if v != i && x[v] == 0 {
				on = false
				break
			}
		}
		if on {
			acc += t.W
		}
	}
	if x[i] == 0 {
		return acc
	}
	return -acc
}

// Square returns the polynomial p², expanded monomial-by-monomial using
// x_i² = x_i (so the result's degree is at most twice p's degree, and the
// union of each pair's variable sets forms the product monomial).
func Square(p *Poly) *Poly {
	out := NewPoly(p.n)
	for a := 0; a < len(p.terms); a++ {
		ta := p.terms[a]
		for b := 0; b < len(p.terms); b++ {
			tb := p.terms[b]
			union := append(append([]int(nil), ta.Vars...), tb.Vars...)
			out.Add(ta.W*tb.W, union...)
		}
	}
	return out
}

// Machine is an annealed Gibbs sampler over a polynomial energy, in the
// binary domain: each update sets x_i = 1 with the heat-bath probability
// σ(−β·ΔE_i) where ΔE_i is the 0→1 energy change.
type Machine struct {
	poly   *Poly
	state  ising.Bits
	src    *rng.Source
	sweeps int64
}

// New returns a machine for the polynomial with the all-zero state.
func New(p *Poly, src *rng.Source) *Machine {
	return &Machine{poly: p, state: make(ising.Bits, p.n), src: src}
}

// State returns the live configuration.
func (m *Machine) State() ising.Bits { return m.state }

// Sweeps returns the cumulative Monte-Carlo sweeps executed.
func (m *Machine) Sweeps() int64 { return m.sweeps }

// Randomize draws a uniform configuration.
func (m *Machine) Randomize() {
	for i := range m.state {
		if m.src.Bool(0.5) {
			m.state[i] = 1
		} else {
			m.state[i] = 0
		}
	}
}

// Sweep performs one sequential heat-bath pass at inverse temperature beta.
func (m *Machine) Sweep(beta float64) {
	for i := 0; i < m.poly.n; i++ {
		// Energy difference of setting x_i to 1 versus 0.
		var dUp float64
		if m.state[i] == 0 {
			dUp = m.poly.DeltaFlip(m.state, i)
		} else {
			dUp = -m.poly.DeltaFlip(m.state, i)
		}
		pUp := 1 / (1 + math.Exp(beta*dUp))
		if m.src.Float64() < pUp {
			m.state[i] = 1
		} else {
			m.state[i] = 0
		}
	}
	m.sweeps++
}

// Anneal runs one annealing run from a fresh random state and returns a
// copy of the final configuration.
func (m *Machine) Anneal(sched schedule.Schedule, sweeps int) ising.Bits {
	m.Randomize()
	for t := 0; t < sweeps; t++ {
		m.Sweep(sched.Beta(t, sweeps))
	}
	return m.state.Clone()
}

// Options configures SolveConstrained. Semantics mirror core.Options.
type Options struct {
	// P is the fixed penalty weight (no α·d·N heuristic here: polynomial
	// densities are not meaningful in the same way; pass what you mean).
	P float64
	// Eta is the Lagrange step size.
	Eta float64
	// Iterations is the number of annealing runs / λ updates.
	Iterations int
	// SweepsPerRun is the MCS budget per run.
	SweepsPerRun int
	// BetaMax ends the linear β-schedule.
	BetaMax float64
	// Seed drives all stochasticity.
	Seed uint64
	// Progress, when non-nil, is invoked once per iteration with a
	// snapshot of the solve.
	Progress func(core.ProgressInfo)
	// TargetCost, when non-nil, stops the solve early as soon as a
	// feasible sample reaches a cost ≤ *TargetCost.
	TargetCost *float64
	// Patience, when positive, stops the solve after this many consecutive
	// iterations without an improvement of the best feasible cost.
	Patience int
	// Initial, when non-empty and feasible, seeds the best-so-far, and
	// one that meets TargetCost ends the solve at 0 iterations. Every run
	// still starts from a random state. Length must be f.N().
	Initial ising.Bits
	// Checkpoint, when non-nil, is invoked with the assignment and cost of
	// every strict improvement of the best feasible cost.
	Checkpoint func(best ising.Bits, cost float64)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.P == 0 {
		out.P = 1
	}
	if out.Eta == 0 {
		out.Eta = 1
	}
	if out.Iterations == 0 {
		out.Iterations = 200
	}
	if out.SweepsPerRun == 0 {
		out.SweepsPerRun = 200
	}
	if out.BetaMax == 0 {
		out.BetaMax = 10
	}
	return out
}

// Result reports a constrained polynomial solve.
type Result struct {
	// Best is the best feasible configuration (nil if none observed).
	Best ising.Bits
	// BestCost is f(Best) (+Inf if none).
	BestCost float64
	// FeasibleCount counts feasible samples.
	FeasibleCount int
	// Iterations is the number of runs executed.
	Iterations int
	// TotalSweeps is the cumulative MCS budget spent across runs.
	TotalSweeps int64
	// Lambda is the final multiplier vector.
	Lambda []float64
	// Stopped records why the solve returned.
	Stopped core.StopReason
}

// SolveConstrained runs the polynomial SAIM loop: minimize f subject to
// g_k(x) = 0 for every constraint polynomial, by annealing
// L = f + P·Σ g_k² + Σ λ_k g_k and updating λ_k ← λ_k + η·g_k(x̄) after
// each run. Feasibility means |g_k(x)| ≤ tol for all k.
func SolveConstrained(f *Poly, constraints []*Poly, tol float64, opts Options) (*Result, error) {
	return SolveConstrainedContext(context.Background(), f, constraints, tol, opts)
}

// SolveConstrainedContext is SolveConstrained under a context, checked once
// per annealing run. On cancellation the best-so-far result is returned
// with a nil error and Stopped == core.StopCancelled.
func SolveConstrainedContext(ctx context.Context, f *Poly, constraints []*Poly, tol float64, opts Options) (*Result, error) {
	o := opts.withDefaults()
	for k, g := range constraints {
		if g.N() != f.N() {
			return nil, fmt.Errorf("hoim: constraint %d over %d vars, objective over %d", k, g.N(), f.N())
		}
	}
	if len(o.Initial) > 0 && len(o.Initial) != f.N() {
		return nil, fmt.Errorf("hoim: initial assignment length %d, want %d", len(o.Initial), f.N())
	}
	// Static part: f + P Σ g².
	static := f.Clone()
	for _, g := range constraints {
		static.AddPoly(o.P, Square(g))
	}

	src := rng.New(o.Seed)
	lambda := make([]float64, len(constraints))
	res := &Result{BestCost: math.Inf(1)}
	sched := schedule.Linear{Start: 0, End: o.BetaMax}
	var sweeps int64
	sinceImprove := 0

	iters := o.Iterations
	if len(o.Initial) > 0 && feasibleAt(constraints, o.Initial, tol) {
		res.BestCost = f.Energy(o.Initial)
		res.Best = o.Initial.Clone()
		if o.TargetCost != nil && res.BestCost <= *o.TargetCost {
			res.Stopped = core.StopTarget
			iters = 0
		}
	}

	for k := 0; k < iters; k++ {
		if ctx.Err() != nil {
			res.Stopped = core.StopCancelled
			break
		}
		res.Iterations = k + 1
		// L_k = static + Σ λ_k g_k, rebuilt symbolically per iteration.
		lag := static.Clone()
		for c, g := range constraints {
			if lambda[c] != 0 {
				lag.AddPoly(lambda[c], g)
			}
		}
		m := New(lag, src.Split())
		x := m.Anneal(sched, o.SweepsPerRun)
		sweeps += m.Sweeps()

		feasible := true
		for c, g := range constraints {
			gv := g.Energy(x)
			if math.Abs(gv) > tol {
				feasible = false
			}
			lambda[c] += o.Eta * gv
		}
		sinceImprove++
		if feasible {
			res.FeasibleCount++
			if cost := f.Energy(x); cost < res.BestCost {
				res.BestCost = cost
				res.Best = x.Clone()
				sinceImprove = 0
				if o.Checkpoint != nil {
					o.Checkpoint(res.Best, cost)
				}
			}
		}
		if o.Progress != nil {
			norm := 0.0
			for _, l := range lambda {
				norm += l * l
			}
			o.Progress(core.ProgressInfo{
				Iteration: k, Total: o.Iterations, BestCost: res.BestCost,
				FeasibleCount: res.FeasibleCount, Samples: k + 1,
				LambdaNorm: math.Sqrt(norm), Sweeps: sweeps,
			})
		}
		if o.TargetCost != nil && res.Best != nil && res.BestCost <= *o.TargetCost {
			res.Stopped = core.StopTarget
			break
		}
		if o.Patience > 0 && sinceImprove >= o.Patience {
			res.Stopped = core.StopPatience
			break
		}
	}
	res.TotalSweeps = sweeps
	res.Lambda = lambda
	return res, nil
}

// feasibleAt reports whether every constraint polynomial is within tol of
// 0 at x.
func feasibleAt(constraints []*Poly, x ising.Bits, tol float64) bool {
	for _, g := range constraints {
		if math.Abs(g.Energy(x)) > tol {
			return false
		}
	}
	return true
}

// Terms returns a copy of the polynomial's monomial list (constants appear
// as terms with empty Vars). Mutating the returned slice does not affect
// the polynomial.
func (p *Poly) Terms() []Term {
	out := make([]Term, len(p.terms))
	for i, t := range p.terms {
		out[i] = Term{Vars: append([]int(nil), t.Vars...), W: t.W}
	}
	return out
}

package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Expr is an algebraic expression over the binary variables of one Model:
// a constant plus linear, quadratic, and higher-order monomials. Exprs are
// values — every operation returns a new expression and never mutates its
// operands — so they can be built up incrementally, stored, and reused.
//
// Build them from variables (v.Mul, v.Times, Prod), from slices (Dot,
// Vars.Sum), or from constants (Const), and combine with Add, Sub, Mul,
// and Sum.
type Expr struct {
	m    *Model
	c    float64
	lin  []linTerm
	quad []quadTerm
	poly []polyTerm
}

type linTerm struct {
	v int
	w float64
}

type quadTerm struct {
	i, j int // i < j
	w    float64
}

type polyTerm struct {
	vars []int // deduplicated, degree ≥ 3
	w    float64
}

// Const returns the constant expression c.
func Const(c float64) Expr { return Expr{c: c} }

// Mul returns the linear term c·v.
func (v Var) Mul(c float64) Expr {
	return Expr{m: v.m, lin: []linTerm{{v: v.id, w: c}}}
}

// Times returns the product v·o. For distinct variables this is the
// quadratic term x_i·x_j; for the same variable it collapses to the linear
// term (x² = x over binaries).
func (v Var) Times(o Var) Expr {
	m := mergeModels(v.m, o.m)
	if v.id == o.id {
		return Expr{m: m, lin: []linTerm{{v: v.id, w: 1}}}
	}
	i, j := v.id, o.id
	if i > j {
		i, j = j, i
	}
	return Expr{m: m, quad: []quadTerm{{i: i, j: j, w: 1}}}
}

// Prod returns the monomial Π x_i over the given variables. Duplicate
// variables collapse (x² = x); the degree after deduplication classifies
// the term as linear, quadratic, or higher-order. Typical low arities
// dedup with an allocation-light linear scan; high arities switch to a
// map (mirroring the builder-side dedupVars).
func Prod(vs ...Var) Expr {
	if len(vs) == 0 {
		return Const(1)
	}
	const linearScanMax = 8
	m := vs[0].m
	ids := make([]int, 0, len(vs))
	var seen map[int]struct{}
	if len(vs) > linearScanMax {
		seen = make(map[int]struct{}, len(vs))
	}
	for _, v := range vs {
		m = mergeModels(m, v.m)
		if seen != nil {
			if _, dup := seen[v.id]; dup {
				continue
			}
			seen[v.id] = struct{}{}
			ids = append(ids, v.id)
			continue
		}
		dup := false
		for _, u := range ids {
			if u == v.id {
				dup = true
				break
			}
		}
		if !dup {
			ids = append(ids, v.id)
		}
	}
	switch len(ids) {
	case 1:
		return Expr{m: m, lin: []linTerm{{v: ids[0], w: 1}}}
	case 2:
		i, j := ids[0], ids[1]
		if i > j {
			i, j = j, i
		}
		return Expr{m: m, quad: []quadTerm{{i: i, j: j, w: 1}}}
	default:
		return Expr{m: m, poly: []polyTerm{{vars: ids, w: 1}}}
	}
}

// Dot returns the linear expression Σ coeffs_i·vs_i. The slices must have
// equal length.
func Dot(coeffs []float64, vs Vars) Expr {
	if len(coeffs) != len(vs) {
		if len(vs) > 0 {
			vs[0].m.errf("model: Dot over %d coefficients but %d variables", len(coeffs), len(vs))
			return Expr{m: vs[0].m}
		}
		panic(fmt.Sprintf("model: Dot over %d coefficients but no variables", len(coeffs)))
	}
	out := Expr{lin: make([]linTerm, 0, len(vs))}
	for i, v := range vs {
		out.m = mergeModels(out.m, v.m)
		out.lin = append(out.lin, linTerm{v: v.id, w: coeffs[i]})
	}
	return out
}

// Sum returns e_1 + e_2 + … + e_k. Unlike a fold over Add — which copies
// the accumulated terms at every step — Sum concatenates once, so it is
// the way to combine a large number of terms (the problem catalog builds
// its objectives with it).
func Sum(es ...Expr) Expr {
	var out Expr
	nl, nq, np := 0, 0, 0
	for _, e := range es {
		out.m = mergeModels(out.m, e.m)
		out.c += e.c
		nl += len(e.lin)
		nq += len(e.quad)
		np += len(e.poly)
	}
	out.lin = make([]linTerm, 0, nl)
	out.quad = make([]quadTerm, 0, nq)
	if np > 0 {
		out.poly = make([]polyTerm, 0, np)
	}
	for _, e := range es {
		out.lin = append(out.lin, e.lin...)
		out.quad = append(out.quad, e.quad...)
		out.poly = append(out.poly, e.poly...)
	}
	return out
}

// Sum returns Σ_i x_i over the variables.
func (vs Vars) Sum() Expr {
	out := Expr{lin: make([]linTerm, 0, len(vs))}
	for _, v := range vs {
		out.m = mergeModels(out.m, v.m)
		out.lin = append(out.lin, linTerm{v: v.id, w: 1})
	}
	return out
}

// Add returns e + o. Each call copies both operands' terms into a fresh
// expression, so folding k terms with Add (e = e.Add(t) in a loop) costs
// O(k²) time and memory; combine many terms with Sum (or Dot, Vars.Sum),
// which concatenates once.
func (e Expr) Add(o Expr) Expr {
	out := Expr{
		m:    mergeModels(e.m, o.m),
		c:    e.c + o.c,
		lin:  make([]linTerm, 0, len(e.lin)+len(o.lin)),
		quad: make([]quadTerm, 0, len(e.quad)+len(o.quad)),
	}
	out.lin = append(append(out.lin, e.lin...), o.lin...)
	out.quad = append(append(out.quad, e.quad...), o.quad...)
	if n := len(e.poly) + len(o.poly); n > 0 {
		out.poly = make([]polyTerm, 0, n)
		out.poly = append(append(out.poly, e.poly...), o.poly...)
	}
	return out
}

// Sub returns e − o.
func (e Expr) Sub(o Expr) Expr { return e.Add(o.Mul(-1)) }

// Mul returns the expression scaled by c.
func (e Expr) Mul(c float64) Expr {
	out := Expr{m: e.m, c: e.c * c}
	out.lin = make([]linTerm, len(e.lin))
	for i, t := range e.lin {
		t.w *= c
		out.lin[i] = t
	}
	out.quad = make([]quadTerm, len(e.quad))
	for i, t := range e.quad {
		t.w *= c
		out.quad[i] = t
	}
	if len(e.poly) > 0 {
		out.poly = make([]polyTerm, len(e.poly))
		for i, t := range e.poly {
			out.poly[i] = polyTerm{vars: t.vars, w: t.w * c}
		}
	}
	return out
}

// Eval returns the value of the expression under a 0/1 assignment over all
// model variables (entries beyond 1 are treated as 1).
func (e Expr) Eval(assignment []int) float64 {
	on := func(id int) bool { return id < len(assignment) && assignment[id] != 0 }
	v := e.c
	for _, t := range e.lin {
		if on(t.v) {
			v += t.w
		}
	}
	for _, t := range e.quad {
		if on(t.i) && on(t.j) {
			v += t.w
		}
	}
	for _, t := range e.poly {
		all := true
		for _, id := range t.vars {
			if !on(id) {
				all = false
				break
			}
		}
		if all {
			v += t.w
		}
	}
	return v
}

// degree returns the polynomial degree of the expression (0 for a
// constant), ignoring terms with zero weight.
func (e Expr) degree() int {
	d := 0
	for _, t := range e.lin {
		if t.w != 0 && d < 1 {
			d = 1
		}
	}
	for _, t := range e.quad {
		if t.w != 0 && d < 2 {
			d = 2
		}
	}
	for _, t := range e.poly {
		if t.w != 0 && d < len(t.vars) {
			d = len(t.vars)
		}
	}
	return d
}

// canonical merges duplicate monomials and returns the expression's terms
// in the deterministic order Compile emits: linear terms by variable id,
// quadratic terms by (i, j), higher-order terms in insertion order.
//
// Each term list is copied, sorted stably by monomial, and merged in one
// pass over equal neighbours. Stability keeps a monomial's occurrences in
// insertion order, so its merged weight is the same sum, from zero and in
// the same order, that accumulating into a map would give: bit for bit,
// in O(t log t) and with no hashing. Monomials whose weights sum to zero
// (of either sign) are dropped.
//
// A list that is already canonical — monomials strictly increasing, no
// zero weight — comes back as it is, uncopied: merging it would rebuild
// each weight as +0 + w, which is w bit for bit. Decoded wire models and
// catalog QKPs take this path. The returned lists may therefore share the
// expression's storage, and callers only read them.
func (e Expr) canonical() (lin []linTerm, quad []quadTerm, poly []polyTerm) {
	return canonicalLin(e.lin), canonicalQuad(e.quad), canonicalPoly(e.poly)
}

func canonicalLin(ts []linTerm) []linTerm {
	canon := true
	for k, t := range ts {
		if t.w == 0 || k > 0 && ts[k-1].v >= t.v {
			canon = false
			break
		}
	}
	if canon {
		return ts[:len(ts):len(ts)]
	}
	lin := slices.Clone(ts)
	slices.SortStableFunc(lin, func(a, b linTerm) int { return cmp.Compare(a.v, b.v) })
	k := 0
	for s := 0; s < len(lin); {
		t := linTerm{v: lin[s].v}
		for ; s < len(lin) && lin[s].v == t.v; s++ {
			t.w += lin[s].w
		}
		if t.w != 0 {
			lin[k] = t
			k++
		}
	}
	return lin[:k]
}

func canonicalQuad(ts []quadTerm) []quadTerm {
	canon := true
	for k, t := range ts {
		if t.w == 0 || k > 0 && (ts[k-1].i > t.i || ts[k-1].i == t.i && ts[k-1].j >= t.j) {
			canon = false
			break
		}
	}
	if canon {
		return ts[:len(ts):len(ts)]
	}
	quad := slices.Clone(ts)
	slices.SortStableFunc(quad, func(a, b quadTerm) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		return cmp.Compare(a.j, b.j)
	})
	k := 0
	for s := 0; s < len(quad); {
		t := quadTerm{i: quad[s].i, j: quad[s].j}
		for ; s < len(quad) && quad[s].i == t.i && quad[s].j == t.j; s++ {
			t.w += quad[s].w
		}
		if t.w != 0 {
			quad[k] = t
			k++
		}
	}
	return quad[:k]
}

func canonicalPoly(ts []polyTerm) []polyTerm {
	if !slices.ContainsFunc(ts, func(t polyTerm) bool { return t.w == 0 }) {
		return ts[:len(ts):len(ts)]
	}
	var poly []polyTerm
	for _, t := range ts {
		if t.w != 0 {
			poly = append(poly, t)
		}
	}
	return poly
}

// linearCoeffs returns the merged linear coefficient vector of a linear
// expression over n variables.
func (e Expr) linearCoeffs(n int) []float64 {
	out := make([]float64, n)
	for _, t := range e.lin {
		if t.v < n {
			out[t.v] += t.w
		}
	}
	return out
}

// valid reports whether every coefficient of the expression is finite.
func (e Expr) valid() bool {
	f := func(w float64) bool { return !math.IsNaN(w) && !math.IsInf(w, 0) }
	if !f(e.c) {
		return false
	}
	for _, t := range e.lin {
		if !f(t.w) {
			return false
		}
	}
	for _, t := range e.quad {
		if !f(t.w) {
			return false
		}
	}
	for _, t := range e.poly {
		if !f(t.w) {
			return false
		}
	}
	return true
}

// mergeModels resolves the owning model of a combined expression; mixing
// variables from two different models is a programmer error and panics.
func mergeModels(a, b *Model) *Model {
	switch {
	case a == nil:
		return b
	case b == nil, a == b:
		return a
	default:
		panic("model: expression mixes variables from different models")
	}
}

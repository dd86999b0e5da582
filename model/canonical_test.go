package model

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// canonicalMapMerge is the map-and-sort.Slice canonicalizer that
// Expr.canonical replaced, kept as the oracle: every merged weight is a
// map accumulation from zero in insertion order, zero sums are dropped,
// and the survivors are sorted by monomial.
func canonicalMapMerge(e Expr) (lin []linTerm, quad []quadTerm, poly []polyTerm) {
	lm := make(map[int]float64, len(e.lin))
	for _, t := range e.lin {
		lm[t.v] += t.w
	}
	lin = make([]linTerm, 0, len(lm))
	for v, w := range lm {
		if w != 0 {
			lin = append(lin, linTerm{v: v, w: w})
		}
	}
	sort.Slice(lin, func(a, b int) bool { return lin[a].v < lin[b].v })

	qm := make(map[[2]int]float64, len(e.quad))
	for _, t := range e.quad {
		qm[[2]int{t.i, t.j}] += t.w
	}
	quad = make([]quadTerm, 0, len(qm))
	for k, w := range qm {
		if w != 0 {
			quad = append(quad, quadTerm{i: k[0], j: k[1], w: w})
		}
	}
	sort.Slice(quad, func(a, b int) bool {
		if quad[a].i != quad[b].i {
			return quad[a].i < quad[b].i
		}
		return quad[a].j < quad[b].j
	})

	for _, t := range e.poly {
		if t.w != 0 {
			poly = append(poly, t)
		}
	}
	return lin, quad, poly
}

// randomWeight draws a weight whose sums exercise floating-point corner
// cases: signed zeros, subnormals, values that cancel exactly, and
// magnitudes far enough apart that summation order changes the result.
func randomWeight(r *rand.Rand) float64 {
	switch r.IntN(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(r.IntN(7)-3) * math.SmallestNonzeroFloat64
	case 3:
		return float64(r.IntN(9) - 4)
	case 4:
		return (r.Float64() - 0.5) * 1e16
	case 5:
		return r.Float64() * 1e-3
	default:
		return r.NormFloat64()
	}
}

// randomExpr builds an expression over n variables whose monomials repeat
// in shuffled order, some repeats cancelling to exactly zero.
func randomExpr(r *rand.Rand, n int) Expr {
	var e Expr
	for k := r.IntN(4 * n); k > 0; k-- {
		v, w := r.IntN(n), randomWeight(r)
		e.lin = append(e.lin, linTerm{v: v, w: w})
		if r.IntN(4) == 0 {
			e.lin = append(e.lin, linTerm{v: v, w: -w})
		}
	}
	for k := r.IntN(6 * n); k > 0; k-- {
		i := r.IntN(n - 1)
		j := i + 1 + r.IntN(n-1-i)
		w := randomWeight(r)
		e.quad = append(e.quad, quadTerm{i: i, j: j, w: w})
		if r.IntN(4) == 0 {
			e.quad = append(e.quad, quadTerm{i: i, j: j, w: -w})
		}
	}
	for k := r.IntN(n); k > 0; k-- {
		vars := r.Perm(n)[:3+r.IntN(min(3, n-2))]
		e.poly = append(e.poly, polyTerm{vars: vars, w: randomWeight(r)})
	}
	r.Shuffle(len(e.lin), func(a, b int) { e.lin[a], e.lin[b] = e.lin[b], e.lin[a] })
	r.Shuffle(len(e.quad), func(a, b int) { e.quad[a], e.quad[b] = e.quad[b], e.quad[a] })
	return e
}

// checkCanonical compares Expr.canonical with the map-merge oracle, bit
// for bit, and checks that it leaves the expression's own terms as they
// were.
func checkCanonical(t *testing.T, what string, e Expr) {
	t.Helper()
	lin0 := append([]linTerm(nil), e.lin...)
	quad0 := append([]quadTerm(nil), e.quad...)

	lin, quad, poly := e.canonical()
	wantLin, wantQuad, wantPoly := canonicalMapMerge(e)

	if len(lin) != len(wantLin) {
		t.Fatalf("%s: %d linear terms, want %d", what, len(lin), len(wantLin))
	}
	for k := range lin {
		if lin[k].v != wantLin[k].v || math.Float64bits(lin[k].w) != math.Float64bits(wantLin[k].w) {
			t.Fatalf("%s: linear term %d = %+v, want %+v", what, k, lin[k], wantLin[k])
		}
	}
	if len(quad) != len(wantQuad) {
		t.Fatalf("%s: %d quadratic terms, want %d", what, len(quad), len(wantQuad))
	}
	for k := range quad {
		g, w := quad[k], wantQuad[k]
		if g.i != w.i || g.j != w.j || math.Float64bits(g.w) != math.Float64bits(w.w) {
			t.Fatalf("%s: quadratic term %d = %+v, want %+v", what, k, g, w)
		}
	}
	if len(poly) != len(wantPoly) {
		t.Fatalf("%s: %d higher-order terms, want %d", what, len(poly), len(wantPoly))
	}
	for k := range poly {
		g, w := poly[k], wantPoly[k]
		if math.Float64bits(g.w) != math.Float64bits(w.w) || len(g.vars) != len(w.vars) {
			t.Fatalf("%s: higher-order term %d = %+v, want %+v", what, k, g, w)
		}
		for a := range g.vars {
			if g.vars[a] != w.vars[a] {
				t.Fatalf("%s: higher-order term %d = %+v, want %+v", what, k, g, w)
			}
		}
	}

	// Canonicalizing is read-only: the expression's own terms keep
	// their insertion order.
	for k := range lin0 {
		if e.lin[k] != lin0[k] {
			t.Fatalf("%s: canonical reordered the expression's linear terms", what)
		}
	}
	for k := range quad0 {
		if e.quad[k] != quad0[k] {
			t.Fatalf("%s: canonical reordered the expression's quadratic terms", what)
		}
	}
}

func TestCanonicalMatchesMapMerge(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		e := randomExpr(r, 3+r.IntN(12))
		checkCanonical(t, fmt.Sprintf("trial %d", trial), e)

		// The already-canonical lists that canonical returns uncopied, and
		// lists one step away from canonical, which must still merge: one
		// zero weight, one monomial repeated next to itself, one adjacent
		// pair out of order.
		lin, quad, poly := canonicalMapMerge(e)
		canon := Expr{c: e.c, lin: lin, quad: quad, poly: poly}
		checkCanonical(t, fmt.Sprintf("trial %d, canonical", trial), canon)
		if gl, gq, _ := canon.canonical(); len(gl) > 0 && &gl[0] != &lin[0] || len(gq) > 0 && &gq[0] != &quad[0] {
			t.Fatalf("trial %d: canonical copied lists that were already canonical", trial)
		}
		for _, v := range []struct {
			name string
			edit func(x *Expr)
		}{
			{"zero weight", func(x *Expr) {
				if len(x.lin) > 0 {
					x.lin[r.IntN(len(x.lin))].w = 0
				}
				if len(x.quad) > 0 {
					x.quad[r.IntN(len(x.quad))].w = math.Copysign(0, -1)
				}
			}},
			{"equal neighbour", func(x *Expr) {
				if k := len(x.lin); k > 0 {
					a := r.IntN(k)
					x.lin = slices.Insert(x.lin, a+1, linTerm{v: x.lin[a].v, w: randomWeight(r)})
				}
				if k := len(x.quad); k > 0 {
					a := r.IntN(k)
					t := x.quad[a]
					t.w = randomWeight(r)
					x.quad = slices.Insert(x.quad, a+1, t)
				}
			}},
			{"inversion", func(x *Expr) {
				if k := len(x.lin); k > 1 {
					a := r.IntN(k - 1)
					x.lin[a], x.lin[a+1] = x.lin[a+1], x.lin[a]
				}
				if k := len(x.quad); k > 1 {
					a := r.IntN(k - 1)
					x.quad[a], x.quad[a+1] = x.quad[a+1], x.quad[a]
				}
			}},
		} {
			x := Expr{c: e.c, lin: slices.Clone(lin), quad: slices.Clone(quad), poly: poly}
			v.edit(&x)
			checkCanonical(t, fmt.Sprintf("trial %d, %s", trial, v.name), x)
		}
	}
}

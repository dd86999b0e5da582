package testkit

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/model"
)

// The metamorphic tests rewrite a model through its wire format; these
// structs mirror the quadratic part of it (model/json.go).
type wireDoc struct {
	Families    []wireFamily `json:"families"`
	Maximize    bool         `json:"maximize,omitempty"`
	Objective   wireExpr     `json:"objective"`
	Constraints []wireCon    `json:"constraints,omitempty"`
	Density     float64      `json:"density,omitempty"`
}

type wireFamily struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

type wireExpr struct {
	Const float64    `json:"const,omitempty"`
	Lin   []wireLin  `json:"lin,omitempty"`
	Quad  []wireQuad `json:"quad,omitempty"`
	Poly  []any      `json:"poly,omitempty"`
}

type wireLin struct {
	V int     `json:"v"`
	W float64 `json:"w"`
}

type wireQuad struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

type wireCon struct {
	Name  string   `json:"name"`
	Sense string   `json:"sense"`
	Expr  wireExpr `json:"expr"`
	Bound float64  `json:"bound"`
}

// transform is a rewrite of a model with a known effect on its optimum:
// cost maps an optimal cost of the original to the rewritten model's,
// and fwd and back carry assignments across.
type transform struct {
	name      string
	rewrite   func(d *wireDoc)
	cost      func(c float64) float64
	fwd, back func(x []int) []int
}

// permutation relabels variable i as perm[i] everywhere.
func permutation(perm []int) transform {
	relabel := func(e *wireExpr) {
		for k := range e.Lin {
			e.Lin[k].V = perm[e.Lin[k].V]
		}
		for k := range e.Quad {
			e.Quad[k].I, e.Quad[k].J = perm[e.Quad[k].I], perm[e.Quad[k].J]
		}
	}
	return transform{
		name: "permute",
		rewrite: func(d *wireDoc) {
			relabel(&d.Objective)
			for k := range d.Constraints {
				relabel(&d.Constraints[k].Expr)
			}
		},
		cost: func(c float64) float64 { return c },
		fwd: func(x []int) []int {
			y := make([]int, len(x))
			for i, v := range x {
				y[perm[i]] = v
			}
			return y
		},
		back: func(y []int) []int {
			x := make([]int, len(y))
			for i := range x {
				x[i] = y[perm[i]]
			}
			return x
		},
	}
}

// scaling multiplies the objective by s > 0.
func scaling(s float64) transform {
	same := func(x []int) []int { return x }
	return transform{
		name: fmt.Sprintf("scale%g", s),
		rewrite: func(d *wireDoc) {
			o := &d.Objective
			o.Const *= s
			for k := range o.Lin {
				o.Lin[k].W *= s
			}
			for k := range o.Quad {
				o.Quad[k].W *= s
			}
		},
		cost: func(c float64) float64 { return c * s },
		fwd:  same,
		back: same,
	}
}

// gaugeFlip substitutes x_i → 1 − x_i for every i in flip, expanding the
// objective's terms into the same polynomial over the flipped variables.
// It applies to unconstrained models: a flipped ≤ row is no knapsack.
func gaugeFlip(flip []bool) transform {
	swap := func(x []int) []int {
		y := make([]int, len(x))
		for i, v := range x {
			if flip[i] {
				v = 1 - v
			}
			y[i] = v
		}
		return y
	}
	return transform{
		name: "flip",
		rewrite: func(d *wireDoc) {
			o := d.Objective
			out := wireExpr{Const: o.Const}
			lin := func(v int, w float64) { out.Lin = append(out.Lin, wireLin{V: v, W: w}) }
			for _, t := range o.Lin {
				if flip[t.V] { // w·x = w − w·y
					out.Const += t.W
					lin(t.V, -t.W)
				} else {
					lin(t.V, t.W)
				}
			}
			for _, t := range o.Quad {
				w := t.W
				switch fi, fj := flip[t.I], flip[t.J]; {
				case fi && fj: // w(1−y_i)(1−y_j) = w − w·y_i − w·y_j + w·y_i·y_j
					out.Const += w
					lin(t.I, -w)
					lin(t.J, -w)
				case fi: // w(1−y_i)·y_j = w·y_j − w·y_i·y_j
					lin(t.J, w)
					w = -w
				case fj:
					lin(t.I, w)
					w = -w
				}
				out.Quad = append(out.Quad, wireQuad{I: t.I, J: t.J, W: w})
			}
			d.Objective = out
		},
		cost: func(c float64) float64 { return c },
		fwd:  swap,
		back: swap,
	}
}

// rewrite applies a transform to a model through its wire format.
func rewrite(t *testing.T, m *model.Model, tr transform) *saim.Model {
	t.Helper()
	raw, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var d wireDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Objective.Poly) > 0 {
		t.Fatal("metamorphic transforms cover quadratic models only")
	}
	tr.rewrite(&d)
	if raw, err = json.Marshal(d); err != nil {
		t.Fatal(err)
	}
	out := model.New()
	if err := out.UnmarshalJSON(raw); err != nil {
		t.Fatalf("%s: rewritten model does not decode: %v", tr.name, err)
	}
	compiled, err := out.Compile()
	if err != nil {
		t.Fatalf("%s: rewritten model does not compile: %v", tr.name, err)
	}
	return compiled
}

// TestMetamorphicOptimum checks that relabelling variables, scaling the
// objective by s > 0 and (unconstrained models only) the gauge flip
// x_i → 1 − x_i move the proven optimum exactly as they should, on the
// suite's QUBO and knapsack instances: the rewritten model's brute-force
// optimum is the transformed original optimum, the original's argmin
// carried across is optimal there, and the rewritten argmin carried back
// is optimal in the original. On every rewritten knapsack the exact
// backend must prove that same optimum (it takes no unconstrained model).
func TestMetamorphicOptimum(t *testing.T) {
	ctx := context.Background()
	exact, err := saim.Get("exact")
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(0x6d657461)
	for _, inst := range Suite(1) {
		kind, _, _ := strings.Cut(inst.Name, "-")
		if kind != "qubo" && kind != "knap" {
			continue
		}
		orig, err := inst.Model.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", inst.Name, err)
		}
		opt, argmin, _ := BruteForce(orig)
		n := orig.N()
		// An integer scale keeps a knapsack in the integer form exact takes.
		trs := []transform{permutation(src.Perm(n)), scaling(3)}
		if kind == "qubo" {
			flip := make([]bool, n)
			for i := range flip {
				flip[i] = src.Bool(0.5)
			}
			flip[src.Intn(n)] = true
			trs = append(trs, gaugeFlip(flip))
		}
		for _, tr := range trs {
			tm := rewrite(t, inst.Model, tr)
			want := tr.cost(opt)
			got, gotArg, feasible := BruteForce(tm)
			if !feasible || got != want {
				t.Errorf("%s/%s: optimum %v (feasible %v), want %v", inst.Name, tr.name, got, feasible, want)
				continue
			}
			if c, ok, err := tm.Evaluate(tr.fwd(argmin)); err != nil || !ok || c != want {
				t.Errorf("%s/%s: original argmin carried across costs %v (feasible %v, %v), want %v", inst.Name, tr.name, c, ok, err, want)
			}
			if c, ok, err := orig.Evaluate(tr.back(gotArg)); err != nil || !ok || c != opt {
				t.Errorf("%s/%s: rewritten argmin carried back costs %v (feasible %v, %v), want %v", inst.Name, tr.name, c, ok, err, opt)
			}
			if !exact.Accepts(tm.Form()) {
				continue
			}
			res, err := exact.Solve(ctx, tm)
			if err != nil {
				t.Errorf("%s/%s: exact: %v", inst.Name, tr.name, err)
				continue
			}
			if !res.Optimal || res.Cost != want {
				t.Errorf("%s/%s: exact cost %v (optimal %v), want %v", inst.Name, tr.name, res.Cost, res.Optimal, want)
			}
			if c, ok, err := tm.Evaluate(res.Assignment); err != nil || !ok || c != res.Cost {
				t.Errorf("%s/%s: exact assignment costs %v (feasible %v, %v), reported %v", inst.Name, tr.name, c, ok, err, res.Cost)
			}
		}
	}
}

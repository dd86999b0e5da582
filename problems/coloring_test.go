package problems_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/problems"
)

// cycle returns the n-vertex cycle graph with unit weights.
func cycle(n int) problems.Graph {
	g := problems.Graph{N: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, problems.Edge{U: i, V: (i + 1) % n, W: 1})
	}
	return g
}

// oneHot encodes one color per vertex as the model's "color" bits.
func oneHot(colors []int, k int) []int {
	x := make([]int, len(colors)*k)
	for v, c := range colors {
		x[v*k+c] = 1
	}
	return x
}

// greedyColors colors vertices in index order with the smallest color no
// earlier neighbour holds, returning the coloring and the colors used.
func greedyColors(g problems.Graph) ([]int, int) {
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	colors := make([]int, g.N)
	used := 0
	for v := range colors {
		taken := map[int]bool{}
		for _, u := range adj[v] {
			if u < v {
				taken[colors[u]] = true
			}
		}
		c := 0
		for taken[c] {
			c++
		}
		colors[v] = c
		used = max(used, c+1)
	}
	return colors, used
}

// The objective counts monochromatic edges: Conflicts and the compiled
// model's Evaluate agree on hand-checked colorings of C4.
func TestColoringConflictsByHand(t *testing.T) {
	p, err := problems.Coloring(cycle(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := p.Model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		colors []int
		want   int
	}{
		{[]int{0, 1, 0, 1}, 0},
		{[]int{0, 0, 0, 0}, 4},
		{[]int{0, 0, 1, 1}, 2},
	} {
		if c := p.Conflicts(tc.colors); c != tc.want {
			t.Fatalf("Conflicts(%v) = %d, want %d", tc.colors, c, tc.want)
		}
		cost, feasible, err := cm.Evaluate(oneHot(tc.colors, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !feasible || cost != float64(tc.want) {
			t.Fatalf("Evaluate(%v) = %v, %v; want %d, true", tc.colors, cost, feasible, tc.want)
		}
	}
}

// Colors decodes exactly-one-hot vertices and rejects a double-hot
// vertex, a vertex with no color, and an infeasible solve.
func TestColoringDecode(t *testing.T) {
	p, err := problems.Coloring(problems.Graph{N: 2, Edges: []problems.Edge{{U: 0, V: 1, W: 1}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol := func(x []int, cost float64) *model.Solution {
		return model.NewSolution(p.Model, &saim.Result{Assignment: x, Cost: cost})
	}
	colors, ok := p.Colors(sol([]int{0, 1, 1, 0}, 0))
	if !ok || !reflect.DeepEqual(colors, []int{1, 0}) {
		t.Fatalf("Colors = %v, %v; want [1 0], true", colors, ok)
	}
	if _, ok := p.Colors(sol([]int{1, 1, 1, 0}, 0)); ok {
		t.Fatal("accepted a double-hot vertex")
	}
	if _, ok := p.Colors(sol([]int{0, 0, 1, 0}, 0)); ok {
		t.Fatal("accepted a vertex with no color")
	}
	if _, ok := p.Colors(model.NewSolution(p.Model, &saim.Result{Cost: math.Inf(1)})); ok {
		t.Fatal("decoded an infeasible solve")
	}
}

// k-coloring of an n-vertex graph is n·k binaries under n equalities,
// "onehot[v]": Σ_c x[v·k+c] = 1.
func TestColoringStructure(t *testing.T) {
	const n, k = 5, 3
	p, err := problems.Coloring(cycle(n), k)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := p.Model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Form() != saim.FormConstrained || cm.N() != n*k || cm.NumConstraints() != n {
		t.Fatalf("form %v, N = %d, M = %d; want constrained, %d, %d", cm.Form(), cm.N(), cm.NumConstraints(), n*k, n)
	}
	cs := model.NewSolution(p.Model, &saim.Result{Assignment: oneHot([]int{0, 1, 0, 1, 2}, k)}).Constraints()
	if len(cs) != n {
		t.Fatalf("%d constraint reports, want %d", len(cs), n)
	}
	for v, c := range cs {
		if c.Name != fmt.Sprintf("onehot[%d]", v) || c.Sense != model.EQ || c.Bound != 1 || !c.Satisfied {
			t.Fatalf("constraint %d: %+v", v, c)
		}
	}
}

// An odd cycle has no proper 2-coloring, so no feasible 2-color solve may
// report fewer than one conflict; with 3 colors saim finds a proper one.
func TestColoringOddCycleNeedsThree(t *testing.T) {
	g := cycle(7)
	two, err := problems.Coloring(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, two.Model, "saim", two.Recommended(), saim.WithIterations(250), saim.WithSweepsPerRun(200), saim.WithSeed(5))
	colors, ok := two.Colors(sol)
	if !ok {
		t.Fatal("C7 with 2 colors: no one-hot coloring decoded")
	}
	if c := two.Conflicts(colors); c < 1 || sol.Objective() != float64(c) {
		t.Fatalf("C7 with 2 colors: %d conflicts, objective %v", c, sol.Objective())
	}
	three, err := problems.Coloring(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	sol = solve(t, three.Model, "saim", three.Recommended(), saim.WithIterations(300), saim.WithSweepsPerRun(250), saim.WithSeed(5))
	colors, ok = three.Colors(sol)
	if !ok || three.Conflicts(colors) != 0 {
		t.Fatalf("C7 not properly 3-colored: %v, %v (objective %v)", colors, ok, sol.Objective())
	}
}

// Given the number of colors a greedy coloring uses, saim finds a proper
// coloring of a random graph.
func TestColoringRandomGraphWithinGreedyBudget(t *testing.T) {
	g := problems.RandomGraph(12, 0.35, 1, 9)
	greedy, k := greedyColors(g)
	p, err := problems.Coloring(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Conflicts(greedy); c != 0 {
		t.Fatalf("greedy coloring has %d conflicts", c)
	}
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithSeed(7))
	colors, ok := p.Colors(sol)
	if !ok || p.Conflicts(colors) != 0 {
		t.Fatalf("saim left %v, %v (objective %v) with greedy's budget of %d colors", colors, ok, sol.Objective(), k)
	}
}

// RandomGraph is a pure function of its arguments and draws valid graphs.
func TestRandomGraphDeterministic(t *testing.T) {
	a := problems.RandomGraph(10, 0.5, 3, 1)
	if b := problems.RandomGraph(10, 0.5, 3, 1); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different graphs")
	}
	if c := problems.RandomGraph(10, 0.5, 3, 2); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 drew the same graph")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range a.Edges {
		if e.W < 1 || e.W > 3 || e.W != float64(int(e.W)) {
			t.Fatalf("edge %+v: weight outside the integers of [1, 3]", e)
		}
	}
}

func TestColoringRejectsBadInput(t *testing.T) {
	for name, tc := range map[string]struct {
		g problems.Graph
		k int
	}{
		"no vertices":  {problems.Graph{}, 2},
		"out of range": {problems.Graph{N: 2, Edges: []problems.Edge{{U: 0, V: 9}}}, 2},
		"self-loop":    {problems.Graph{N: 2, Edges: []problems.Edge{{U: 1, V: 1}}}, 2},
		"no colors":    {cycle(3), 0},
	} {
		if _, err := problems.Coloring(tc.g, tc.k); err == nil {
			t.Fatalf("%s: Coloring accepted it", name)
		}
	}
}

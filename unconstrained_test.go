package saim

import "testing"

func TestMinimizeMaxCutTriangle(t *testing.T) {
	// Max-cut on a triangle: QUBO min Σ_(i,j)∈E 2x_i x_j − deg_i x_i has
	// optimal cut 2 (any 2-1 split). In QUBO form for edge (i,j):
	// −(x_i + x_j − 2x_i x_j) summed over edges.
	b := NewBuilder(3)
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	for _, e := range edges {
		b.Linear(e[0], -1).Linear(e[1], -1)
		b.Quadratic(e[0], e[1], 2)
	}
	m := mustModel(t, b)
	if m.Form() != FormUnconstrained {
		t.Fatalf("form = %v, want unconstrained", m.Form())
	}
	res := mustSolve(t, "saim", m, WithIterations(40), WithSweepsPerRun(100), WithSeed(1))
	x, cost := res.Assignment, res.Cost
	if cost != -2 {
		t.Fatalf("cut energy = %v, want -2", cost)
	}
	ones := x[0] + x[1] + x[2]
	if ones != 1 && ones != 2 {
		t.Fatalf("not a 2-1 split: %v", x)
	}
	// Evaluate must agree.
	ev, feasible, err := m.Evaluate(x)
	if err != nil || ev != cost || !feasible {
		t.Fatalf("Evaluate = %v, %v, %v", ev, feasible, err)
	}
}

func TestQUBOProblemEvaluateErrors(t *testing.T) {
	b := NewBuilder(2)
	b.Linear(0, 1)
	m := mustModel(t, b)
	if m.N() != 2 {
		t.Fatalf("N = %d", m.N())
	}
	if _, _, err := m.Evaluate([]int{1}); err == nil {
		t.Fatal("accepted short assignment")
	}
}

package problems_test

import (
	"context"
	"math"
	"testing"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/maxcut"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/problems"
)

var ctx = context.Background()

// solve runs the model with the problem's recommended options plus a seed.
func solve(t *testing.T, m *model.Model, solver string, opts []saim.Option, extra ...saim.Option) *model.Solution {
	t.Helper()
	sol, err := m.Solve(ctx, solver, append(append([]saim.Option{}, opts...), extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestKnapsackAgainstExact(t *testing.T) {
	spec := problems.KnapsackSpec{
		Values:     []float64{60, 100, 120, 70, 80, 50, 90, 110},
		Weights:    [][]float64{{10, 20, 30, 15, 18, 9, 21, 27}},
		Capacities: []float64{70},
	}
	p, err := problems.Knapsack(spec)
	if err != nil {
		t.Fatal(err)
	}
	exact := solve(t, p.Model, "exact", nil)
	if !exact.Result().Optimal {
		t.Fatal("exact did not prove optimality")
	}
	sol := solve(t, p.Model, "saim", p.Recommended(),
		saim.WithIterations(300), saim.WithSweepsPerRun(200), saim.WithSeed(2))
	if !sol.Feasible() {
		t.Fatal("saim found no packing")
	}
	if sol.Objective() != exact.Objective() {
		t.Fatalf("saim value %v, exact optimum %v", sol.Objective(), exact.Objective())
	}
	// Decoder agrees with the report.
	items := p.Selected(sol)
	wt := 0.0
	for _, i := range items {
		wt += spec.Weights[0][i]
	}
	cs := sol.Constraints()[0]
	if cs.Name != "capacity" || cs.Activity != wt || !cs.Satisfied {
		t.Fatalf("capacity status %+v (weight %v)", cs, wt)
	}
}

func TestQuadraticKnapsack(t *testing.T) {
	n := 6
	pair := make([][]float64, n)
	for i := range pair {
		pair[i] = make([]float64, n)
	}
	pair[0][1], pair[1][0] = 30, 30
	pair[2][4], pair[4][2] = 25, 25
	spec := problems.KnapsackSpec{
		Values:     []float64{10, 15, 20, 12, 18, 9},
		PairValues: pair,
		Weights:    [][]float64{{4, 5, 6, 3, 5, 2}},
		Capacities: []float64{14},
		Density:    0.15,
	}
	p, err := problems.Knapsack(spec)
	if err != nil {
		t.Fatal(err)
	}
	exact := solve(t, p.Model, "exact", nil)
	if !exact.Result().Optimal {
		t.Fatal("exact did not prove optimality")
	}
	// The paper's η=20 is tuned for N=100–300 QKP instances; on this tiny
	// one a gentler multiplier step is robust across seeds (later options
	// override earlier ones, the intended way to adapt Recommended).
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithEta(2),
		saim.WithIterations(400), saim.WithSweepsPerRun(200), saim.WithSeed(4))
	if sol.Objective() != exact.Objective() {
		t.Fatalf("saim value %v, exact optimum %v", sol.Objective(), exact.Objective())
	}
}

func TestMaxCutAgainstExhaustive(t *testing.T) {
	g := problems.RingChordsGraph(12, 3, 2)
	p, err := problems.MaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive reference via the internal oracle on the same graph.
	ref := maxcut.NewGraph(g.N)
	for _, e := range g.Edges {
		ref.AddEdge(e.U, e.V, e.W)
	}
	_, best, err := maxcut.ExactMaxCut(ref)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithSeed(3))
	if got := p.CutValue(sol); got != best {
		t.Fatalf("cut %v, optimum %v", got, best)
	}
	left, right := p.Partition(sol)
	if len(left)+len(right) != g.N {
		t.Fatalf("partition sizes %d + %d != %d", len(left), len(right), g.N)
	}
}

func TestColoringEvenCycle(t *testing.T) {
	p, err := problems.Coloring(cycle(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithSeed(6))
	colors, ok := p.Colors(sol)
	if !ok {
		t.Fatal("no one-hot coloring decoded")
	}
	if c := p.Conflicts(colors); c != 0 {
		t.Fatalf("%d conflicts on an even cycle with 2 colors", c)
	}
	if sol.Objective() != 0 {
		t.Fatalf("objective %v, want 0 (proper coloring)", sol.Objective())
	}
}

func TestAssignmentAgainstHungarian(t *testing.T) {
	cost := [][]float64{
		{4, 2, 8, 7},
		{3, 9, 5, 6},
		{7, 1, 4, 5},
		{6, 3, 2, 8},
	}
	p, err := problems.Assignment(cost)
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := problems.Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithSeed(8))
	perm, ok := p.Permutation(sol)
	if !ok {
		t.Fatal("no permutation decoded")
	}
	total := 0.0
	for i, j := range perm {
		total += cost[i][j]
	}
	if total != opt || sol.Objective() != opt {
		t.Fatalf("assignment cost %v (objective %v), Hungarian optimum %v", total, sol.Objective(), opt)
	}
}

func TestShiftScheduling(t *testing.T) {
	spec := problems.ShiftSpec{
		Rates:          []float64{52, 48, 61, 45, 38, 41},
		CrewSize:       3,
		CertifiedPairs: [][2]int{{0, 1}, {2, 3}},
		RequiredPairs:  1,
	}
	p, err := problems.ShiftScheduling(spec)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Form() != saim.FormHighOrder {
		t.Fatalf("form %v, want high-order", compiled.Form())
	}
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithSeed(21))
	crew := p.Crew(sol)
	if len(crew) != 3 {
		t.Fatalf("crew %v, want 3 workers", crew)
	}
	on := map[int]bool{}
	for _, i := range crew {
		on[i] = true
	}
	pairs := 0
	if on[0] && on[1] {
		pairs++
	}
	if on[2] && on[3] {
		pairs++
	}
	if pairs != 1 {
		t.Fatalf("crew %v has %d certified pairs, want 1", crew, pairs)
	}
	// The cheapest certified 3-crew: pair (2,3) costs 61+45, cheapest
	// third is emil(38) → 144; pair (0,1) is 100, third must not complete
	// the other pair... emil(38) → 138. Optimum 138.
	if p.TotalRate(sol) != 138 {
		t.Fatalf("total rate %v, want 138", p.TotalRate(sol))
	}
}

func TestPortfolioAgainstExhaustive(t *testing.T) {
	spec := problems.RandomPortfolio(10, 3, 1.0, 77)
	p, err := problems.Portfolio(spec)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive reference over 2^10 assignments.
	best := math.Inf(1)
	asn := make([]int, 10)
	for mask := 0; mask < 1<<10; mask++ {
		for i := range asn {
			asn[i] = mask >> i & 1
		}
		cost, feas, err := compiled.Evaluate(asn)
		if err != nil {
			t.Fatal(err)
		}
		if feas && cost < best {
			best = cost
		}
	}
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithSeed(9))
	if !sol.Feasible() {
		t.Fatal("no feasible portfolio")
	}
	if math.Abs(sol.Objective()-best) > 1e-9 {
		t.Fatalf("portfolio cost %v, exhaustive optimum %v", sol.Objective(), best)
	}
	if p.Spend(sol) > spec.Budget {
		t.Fatalf("spend %v over budget %v", p.Spend(sol), spec.Budget)
	}
}

func TestSetCoverSolvesToOptimum(t *testing.T) {
	spec := problems.SetCoverSpec{
		NumElements: 5,
		Sets: [][]int{
			{0, 1},
			{1, 2, 3},
			{0, 3},
			{2, 4},
			{3, 4},
		},
		Costs: []float64{3, 4, 2, 2, 3},
	}
	p, err := problems.SetCover(spec)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force optimum over 2^5 selections.
	best := math.Inf(1)
	asn := make([]int, 5)
	for mask := 0; mask < 1<<5; mask++ {
		for i := range asn {
			asn[i] = mask >> i & 1
		}
		cost, feas, err := compiled.Evaluate(asn)
		if err != nil {
			t.Fatal(err)
		}
		if feas && cost < best {
			best = cost
		}
	}
	sol := solve(t, p.Model, "saim", p.Recommended(), saim.WithSeed(10))
	if !sol.Feasible() {
		t.Fatal("no feasible cover")
	}
	if sol.Objective() != best {
		t.Fatalf("cover cost %v, optimum %v", sol.Objective(), best)
	}
	// Decoder covers every element.
	chosen := p.Chosen(sol)
	covered := make([]bool, spec.NumElements)
	for _, j := range chosen {
		for _, e := range spec.Sets[j] {
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			t.Fatalf("element %d uncovered by %v", e, chosen)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := problems.Knapsack(problems.KnapsackSpec{Values: []float64{1}}); err == nil {
		t.Fatal("knapsack without constraints should fail")
	}
	if _, err := problems.SetCover(problems.SetCoverSpec{NumElements: 2, Sets: [][]int{{0}}}); err == nil {
		t.Fatal("uncoverable element should fail")
	}
	if _, err := problems.Coloring(problems.Graph{N: 2, Edges: []problems.Edge{{U: 0, V: 0}}}, 2); err == nil {
		t.Fatal("self-loop should fail")
	}
	if _, err := problems.Assignment([][]float64{{1, 2}}); err == nil {
		t.Fatal("non-square cost should fail")
	}
	if _, err := problems.ShiftScheduling(problems.ShiftSpec{Rates: []float64{1}, CrewSize: 2}); err == nil {
		t.Fatal("oversized crew should fail")
	}
	if _, err := problems.Portfolio(problems.PortfolioSpec{Returns: []float64{1}, Prices: []float64{1}, Covariance: [][]float64{{-1}}}); err == nil {
		t.Fatal("negative variance should fail")
	}
}

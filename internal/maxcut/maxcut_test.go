package maxcut

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
)

func TestCutValueTriangle(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	if v := g.CutValue(ising.Bits{0, 1, 0}); v != 2 {
		t.Fatalf("cut = %v, want 2", v)
	}
	if v := g.CutValue(ising.Bits{0, 0, 0}); v != 0 {
		t.Fatalf("empty cut = %v", v)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 0, 1) },
		func() { g.AddEdge(0, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("AddEdge accepted bad edge")
				}
			}()
			fn()
		}()
	}
}

// The QUBO mapping invariant: energy == −cut on every configuration.
func TestToQUBOEnergyIsNegativeCut(t *testing.T) {
	src := rng.New(3)
	f := func(raw uint8) bool {
		n := int(raw%6) + 3
		g := ErdosRenyi(n, 0.6, 5, uint64(raw)+1)
		q := g.ToQUBO()
		for mask := 0; mask < 1<<n; mask++ {
			x := make(ising.Bits, n)
			for i := 0; i < n; i++ {
				x[i] = int8(mask >> i & 1)
			}
			if math.Abs(q.Energy(x)+g.CutValue(x)) > 1e-9 {
				return false
			}
		}
		_ = src
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIsingMappingAgrees(t *testing.T) {
	g := ErdosRenyi(8, 0.5, 3, 7)
	q := g.ToQUBO()
	m := g.ToIsing()
	for mask := 0; mask < 1<<8; mask++ {
		x := make(ising.Bits, 8)
		for i := 0; i < 8; i++ {
			x[i] = int8(mask >> i & 1)
		}
		if math.Abs(q.Energy(x)-m.Energy(x.Spins())) > 1e-9 {
			t.Fatalf("mismatch at %b", mask)
		}
	}
}

func TestExactMaxCutCompleteBipartite(t *testing.T) {
	// K_{2,3} has max cut = all 6 edges.
	g := NewGraph(5)
	for _, u := range []int{0, 1} {
		for _, v := range []int{2, 3, 4} {
			g.AddEdge(u, v, 1)
		}
	}
	_, best, err := ExactMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	if best != 6 {
		t.Fatalf("max cut = %v, want 6", best)
	}
}

func TestExactMaxCutSizeGuard(t *testing.T) {
	if _, _, err := ExactMaxCut(NewGraph(26)); err == nil {
		t.Fatal("accepted N=26")
	}
}

func TestGreedyCutLocallyOptimal(t *testing.T) {
	g := ErdosRenyi(20, 0.4, 4, 11)
	x, v := GreedyCut(g)
	if v != g.CutValue(x) {
		t.Fatal("reported value inconsistent")
	}
	// No single flip improves.
	for i := 0; i < g.N; i++ {
		x[i] ^= 1
		if g.CutValue(x) > v+1e-9 {
			t.Fatalf("flip of %d improves greedy cut", i)
		}
		x[i] ^= 1
	}
}

func TestAnnealerReachesExactOptimum(t *testing.T) {
	g := ErdosRenyi(14, 0.5, 5, 13)
	_, want, err := ExactMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	// The max-cut QUBO as an unconstrained core problem (no constraint
	// rows), annealed on its raw energy.
	q := g.ToQUBO()
	p := &core.Problem{Objective: q, Ext: constraint.NewSystem(g.N).Extend(constraint.Binary), Cost: q.Energy}
	minimize := func(o core.Options) ising.Bits {
		res, err := core.Solve(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Best
	}
	x := minimize(core.Options{Iterations: 30, SweepsPerRun: 300, BetaMax: 4, Seed: 1})
	// βmax moderate: weights up to 5, ΔE scale ~ O(10).
	if got := g.CutValue(x); got < want-1e-9 {
		// One retry at colder schedule before failing: annealing is
		// stochastic but this size should be easy.
		x2 := minimize(core.Options{Iterations: 100, SweepsPerRun: 600, BetaMax: 8, Seed: 2})
		if got2 := g.CutValue(x2); got2 < want-1e-9 {
			t.Fatalf("annealer cut %v (then %v), optimum %v", got, got2, want)
		}
	}
}

func TestRingChords(t *testing.T) {
	g := RingChords(12, 3, 2)
	if g.N != 12 {
		t.Fatalf("N = %d", g.N)
	}
	// 12 ring edges + 4 chords.
	if len(g.Edges) != 16 {
		t.Fatalf("edges = %d", len(g.Edges))
	}
	if g.TotalWeight() != 12+4*2 {
		t.Fatalf("weight = %v", g.TotalWeight())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ErdosRenyi(15, 0.5, 9, 42)
	b := ErdosRenyi(15, 0.5, 9, 42)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed, different graphs")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed, different edges")
		}
	}
}

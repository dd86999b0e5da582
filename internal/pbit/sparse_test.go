package pbit

import (
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// sparseModel builds a random model with the given coupling density.
func sparseModel(src *rng.Source, n int, density float64) *ising.Model {
	q := ising.NewQUBO(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, src.Sym())
		for j := i + 1; j < n; j++ {
			if src.Bool(density) {
				q.AddQuad(i, j, src.Sym())
			}
		}
	}
	return q.ToIsing()
}

// The defining property: dense and sparse machines with identical seeds
// produce bit-identical trajectories.
func TestSparseMatchesDenseTrajectory(t *testing.T) {
	src := rng.New(91)
	model := sparseModel(src, 40, 0.3)
	dense := New(model, rng.New(777))
	sparse := NewSparse(model, rng.New(777))
	for k := 0; k < 30; k++ {
		beta := float64(k) * 0.2
		dense.Sweep(beta)
		sparse.Sweep(beta)
		ds, ss := dense.State(), sparse.State()
		for i := range ds {
			if ds[i] != ss[i] {
				t.Fatalf("trajectories diverged at sweep %d spin %d", k, i)
			}
		}
	}
}

func TestSparseAnnealMatchesDense(t *testing.T) {
	src := rng.New(93)
	model := sparseModel(src, 24, 0.4)
	dense := New(model, rng.New(5))
	sparse := NewSparse(model, rng.New(5))
	sched := schedule.Linear{Start: 0, End: 8}
	a, b := ising.NewSpins(24), ising.NewSpins(24)
	dense.AnnealInto(a, sched, 120)
	sparse.AnnealInto(b, sched, 120)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("anneal results differ")
		}
	}
	if dense.Energy() != sparse.Energy() {
		t.Fatalf("energies differ: %v vs %v", dense.Energy(), sparse.Energy())
	}
}

func TestSparseFieldConsistency(t *testing.T) {
	src := rng.New(95)
	m := NewSparse(sparseModel(src, 30, 0.2), src.Split())
	for k := 0; k < 40; k++ {
		m.Sweep(1.5)
		if err := m.FieldConsistencyError(); err > 1e-9 {
			t.Fatalf("field drift %v at sweep %d", err, k)
		}
	}
}

func TestSparseUpdateBiases(t *testing.T) {
	src := rng.New(97)
	m := NewSparse(sparseModel(src, 12, 0.3), src.Split())
	m.Randomize()
	h := vecmat.NewVec(12)
	for i := range h {
		h[i] = src.Sym() * 2
	}
	m.UpdateBiases(h)
	if err := m.FieldConsistencyError(); err > 1e-9 {
		t.Fatalf("UpdateBiases drift %v", err)
	}
}

func TestSparseEnergyMatchesModel(t *testing.T) {
	src := rng.New(99)
	model := sparseModel(src, 16, 0.5)
	m := NewSparse(model, src.Split())
	for k := 0; k < 10; k++ {
		m.Randomize()
		if d := math.Abs(m.Energy() - model.Energy(m.State())); d > 1e-9 {
			t.Fatalf("energy mismatch %v", d)
		}
	}
}

func TestSparseDegrees(t *testing.T) {
	model := ising.NewModel(3)
	model.J.Set(0, 1, 1)
	m := NewSparse(model, rng.New(1))
	if m.Degree(0) != 1 || m.Degree(1) != 1 || m.Degree(2) != 0 {
		t.Fatalf("degrees = %d %d %d", m.Degree(0), m.Degree(1), m.Degree(2))
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
}

func TestSparseRejectsInvalidModel(t *testing.T) {
	model := ising.NewModel(2)
	model.J.Set(0, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("NewSparse accepted invalid model")
		}
	}()
	NewSparse(model, rng.New(1))
}

func TestSparseSweepCounter(t *testing.T) {
	src := rng.New(101)
	m := NewSparse(sparseModel(src, 6, 0.5), src.Split())
	m.AnnealInto(ising.NewSpins(6), schedule.Linear{End: 5}, 9)
	if m.Sweeps() != 9 {
		t.Fatalf("Sweeps = %d", m.Sweeps())
	}
}

func TestSparseSetStateCopiesAndRecomputes(t *testing.T) {
	src := rng.New(103)
	m := NewSparse(sparseModel(src, 12, 0.4), src.Split())
	s := ising.NewSpins(12)
	s[2] = 1
	m.SetState(s)
	s[3] = 1 // mutate caller's slice; machine must be unaffected
	if m.State()[2] != 1 || m.State()[3] != -1 {
		t.Fatal("SetState did not copy the caller's state")
	}
	if err := m.FieldConsistencyError(); err > 1e-12 {
		t.Fatalf("SetState field drift %v", err)
	}
}

func TestSparseSetStateRejectsWrongLength(t *testing.T) {
	src := rng.New(107)
	m := NewSparse(sparseModel(src, 4, 0.5), src.Split())
	defer func() {
		if recover() == nil {
			t.Fatal("SetState accepted wrong length")
		}
	}()
	m.SetState(ising.NewSpins(5))
}

// pt installs states through SetState and sweeps them at each rung's
// constant β. A cold sweep keeps the ground state it was handed; a sweep at
// β = 0 decides every spin from its noise draw alone, so from any installed
// state it lands where the same noise stream leads. The second half is why
// an annealing run, whose first sweep is at β = 0, cannot feel a warm start.
func TestSetStateShapesColdSweepsOnly(t *testing.T) {
	const n = 64
	model := ising.NewModel(n)
	for i := 0; i < n; i++ {
		model.J.Set(i, (i+1)%n, 1) // ferromagnetic ring: ±(1,…,1) are ground states
	}
	uniform := func(v int8) ising.Spins {
		s := make(ising.Spins, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	type machine interface {
		SetState(ising.Spins)
		Reseed(*rng.Source)
		Sweep(beta float64)
		State() ising.Spins
	}
	for name, m := range map[string]machine{
		"dense":  New(model, rng.New(1)),
		"sparse": NewSparse(model, rng.New(1)),
	} {
		var hot [2]ising.Spins
		for k, v := range []int8{1, -1} {
			m.Reseed(rng.New(109))
			m.SetState(uniform(v))
			m.Sweep(50)
			for i, s := range m.State() {
				if s != v {
					t.Fatalf("%s: β = 50 sweep moved spin %d of the installed %+d ground state", name, i, v)
				}
			}
			m.Reseed(rng.New(113))
			m.SetState(uniform(v))
			m.Sweep(0)
			hot[k] = m.State().Clone()
		}
		for i := range hot[0] {
			if hot[0][i] != hot[1][i] {
				t.Fatalf("%s: β = 0 sweeps from +1 and -1 states differ at spin %d", name, i)
			}
		}
	}
}

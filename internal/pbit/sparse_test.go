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

package pbit

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

func randomModel(src *rng.Source, n int) *ising.Model {
	q := ising.NewQUBO(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, src.Sym())
		for j := i + 1; j < n; j++ {
			q.AddQuad(i, j, src.Sym())
		}
	}
	return q.ToIsing()
}

func TestTanhApproxAccuracy(t *testing.T) {
	for x := -8.0; x <= 8.0; x += 0.001 {
		if err := math.Abs(tanhApprox(x) - math.Tanh(x)); err > 1.5e-4 {
			t.Fatalf("tanhApprox(%v) error %v", x, err)
		}
	}
	if tanhApprox(100) != 1 || tanhApprox(-100) != -1 {
		t.Fatal("saturation broken")
	}
}

func TestNewRejectsInvalidModel(t *testing.T) {
	m := ising.NewModel(2)
	m.J.Set(0, 0, 1) // diagonal entry is invalid
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid model")
		}
	}()
	New(m, rng.New(1))
}

func TestFieldsIncrementalConsistency(t *testing.T) {
	src := rng.New(2)
	model := randomModel(src, 24)
	m := New(model, src.Split())
	for k := 0; k < 50; k++ {
		m.Sweep(1.0)
		if err := m.FieldConsistencyError(); err > 1e-9 {
			t.Fatalf("field drift %v after sweep %d", err, k)
		}
	}
}

func TestFlipFieldUpdateProperty(t *testing.T) {
	src := rng.New(3)
	f := func(raw uint8) bool {
		n := int(raw%12) + 2
		model := randomModel(src, n)
		m := New(model, src.Split())
		m.Randomize()
		i := src.Intn(n)
		m.flip(i)
		return m.FieldConsistencyError() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateBiasesMatchesRecompute(t *testing.T) {
	src := rng.New(5)
	model := randomModel(src, 16)
	m := New(model, src.Split())
	m.Randomize()
	origH := model.H.Clone()
	newH := vecmat.NewVec(16)
	for i := range newH {
		newH[i] = src.Sym() * 3
	}
	m.UpdateBiases(newH)
	if err := m.FieldConsistencyError(); err > 1e-9 {
		t.Fatalf("UpdateBiases drift %v", err)
	}
	// The shared model must NOT be mutated: bias reprogramming is
	// copy-on-write so machines sharing one model never race on H.
	for i := range newH {
		if model.H[i] != origH[i] {
			t.Fatalf("shared model bias %d mutated by UpdateBiases", i)
		}
	}
}

func TestZeroBetaIsUniform(t *testing.T) {
	// At β=0 the activation is tanh(0)=0 and each p-bit is a fair coin.
	src := rng.New(7)
	model := randomModel(src, 8)
	m := New(model, src.Split())
	const sweeps = 20000
	up := make([]int, 8)
	for k := 0; k < sweeps; k++ {
		m.Sweep(0)
		for i, s := range m.State() {
			if s == 1 {
				up[i]++
			}
		}
	}
	for i, c := range up {
		frac := float64(c) / sweeps
		if math.Abs(frac-0.5) > 0.02 {
			t.Fatalf("p-bit %d up-fraction %v at β=0", i, frac)
		}
	}
}

func TestHighBetaDescendsEnergy(t *testing.T) {
	// At large β the machine behaves like a greedy minimizer: energy after
	// annealing should be no worse than the random start on average.
	src := rng.New(11)
	model := randomModel(src, 30)
	m := New(model, src.Split())
	better := 0
	const trials = 20
	for k := 0; k < trials; k++ {
		m.Randomize()
		e0 := m.Energy()
		for s := 0; s < 50; s++ {
			m.Sweep(50)
		}
		if m.Energy() <= e0 {
			better++
		}
	}
	if better < trials-2 {
		t.Fatalf("high-β annealing failed to descend in %d/%d trials", trials-better, trials)
	}
}

// Gibbs correctness: for a 2-spin ferromagnet the empirical distribution
// must match the Boltzmann distribution exp(-βH)/Z.
func TestBoltzmannDistributionTwoSpins(t *testing.T) {
	model := ising.NewModel(2)
	model.J.Set(0, 1, 1) // H = -m0·m1: aligned states have H=-1, anti have H=+1
	beta := 0.8
	m := New(model, rng.New(13))
	counts := map[[2]int8]int{}
	const samples = 400000
	for k := 0; k < samples; k++ {
		m.Sweep(beta)
		counts[[2]int8{m.State()[0], m.State()[1]}]++
	}
	z := 2*math.Exp(beta) + 2*math.Exp(-beta)
	wantAligned := math.Exp(beta) / z
	wantAnti := math.Exp(-beta) / z
	cases := []struct {
		s    [2]int8
		want float64
	}{
		{[2]int8{1, 1}, wantAligned},
		{[2]int8{-1, -1}, wantAligned},
		{[2]int8{1, -1}, wantAnti},
		{[2]int8{-1, 1}, wantAnti},
	}
	for _, c := range cases {
		got := float64(counts[c.s]) / samples
		if math.Abs(got-c.want) > 0.01 {
			t.Fatalf("state %v frequency %v, want %v", c.s, got, c.want)
		}
	}
}

// With a strong bias field, a single p-bit must polarize according to
// P(m=+1) = (1+tanh(βh))/2.
func TestSinglePBitPolarization(t *testing.T) {
	model := ising.NewModel(1)
	model.H[0] = 0.7
	beta := 1.5
	m := New(model, rng.New(17))
	up := 0
	const samples = 300000
	for k := 0; k < samples; k++ {
		m.Sweep(beta)
		if m.State()[0] == 1 {
			up++
		}
	}
	want := (1 + math.Tanh(beta*model.H[0])) / 2
	got := float64(up) / samples
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("polarization %v, want %v", got, want)
	}
}

func TestAnnealFindsGroundStateSmall(t *testing.T) {
	// Frustration-free 6-spin chain; exact ground state by exhaustive
	// enumeration, annealer must find it in most runs.
	src := rng.New(19)
	model := randomModel(src, 10)
	best := math.Inf(1)
	n := model.N()
	for mask := 0; mask < 1<<n; mask++ {
		s := make(ising.Spins, n)
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if e := model.Energy(s); e < best {
			best = e
		}
	}
	m := New(model, src.Split())
	hits := 0
	const runs = 30
	s := ising.NewSpins(model.N())
	for k := 0; k < runs; k++ {
		m.AnnealInto(s, schedule.Linear{Start: 0, End: 10}, 300)
		if model.Energy(s) <= best+1e-9 {
			hits++
		}
	}
	if hits < runs/2 {
		t.Fatalf("annealer hit ground state only %d/%d times", hits, runs)
	}
}

func TestSweepCounter(t *testing.T) {
	src := rng.New(23)
	m := New(randomModel(src, 4), src.Split())
	m.AnnealInto(ising.NewSpins(4), schedule.Linear{End: 5}, 17)
	if m.Sweeps() != 17 {
		t.Fatalf("Sweeps = %d, want 17", m.Sweeps())
	}
}

func TestSetStateCopiesAndRecomputes(t *testing.T) {
	src := rng.New(29)
	m := New(randomModel(src, 6), src.Split())
	s := ising.NewSpins(6)
	s[2] = 1
	m.SetState(s)
	s[3] = 1 // mutate caller's slice; machine must be unaffected
	if m.State()[3] != -1 {
		t.Fatal("SetState aliased caller slice")
	}
	if err := m.FieldConsistencyError(); err > 1e-12 {
		t.Fatalf("SetState field drift %v", err)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() ising.Spins {
		src := rng.New(31)
		m := New(randomModel(src, 12), src.Split())
		s := ising.NewSpins(12)
		m.AnnealInto(s, schedule.Linear{End: 8}, 100)
		return s
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different trajectories")
		}
	}
}

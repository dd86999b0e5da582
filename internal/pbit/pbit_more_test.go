package pbit

import (
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// AnnealFromInto must continue from the current state, not re-randomize:
// at β=∞-ish and zero sweeps it should leave the state untouched.
func TestAnnealFromZeroSweepsKeepsState(t *testing.T) {
	src := rng.New(41)
	m := New(randomModel(src, 8), src.Split())
	s := ising.NewSpins(8)
	s[3] = 1
	m.SetState(s)
	out := ising.NewSpins(8)
	m.AnnealFromInto(out, schedule.Constant{Value: 5}, 0)
	for i := range s {
		if out[i] != s[i] {
			t.Fatal("AnnealFromInto(0 sweeps) changed state")
		}
	}
}

// AnnealInto must re-randomize: two consecutive anneals from the same machine
// should (with overwhelming probability) not return identical states on a
// frustrated model at low β.
func TestAnnealRerandomizes(t *testing.T) {
	src := rng.New(43)
	m := New(randomModel(src, 24), src.Split())
	a, b := ising.NewSpins(24), ising.NewSpins(24)
	m.AnnealInto(a, schedule.Constant{Value: 0.1}, 3)
	m.AnnealInto(b, schedule.Constant{Value: 0.1}, 3)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two low-β anneals returned identical 24-spin states")
	}
}

// A bias flip through UpdateBiases must actually change the sampled
// polarization — the SAIM reprogramming path end to end.
func TestUpdateBiasesChangesSampling(t *testing.T) {
	model := ising.NewModel(1)
	model.H[0] = 2
	m := New(model, rng.New(47))
	count := func() int {
		up := 0
		for k := 0; k < 20000; k++ {
			m.Sweep(1)
			if m.State()[0] == 1 {
				up++
			}
		}
		return up
	}
	upBefore := count()
	m.UpdateBiases(vecmat.Vec{-2})
	upAfter := count()
	if upBefore < 15000 {
		t.Fatalf("positive bias polarization too weak: %d/20000", upBefore)
	}
	if upAfter > 5000 {
		t.Fatalf("negative bias polarization too weak: %d/20000", upAfter)
	}
}

// Detailed-balance sanity on a frustrated triangle: the three-spin
// antiferromagnet has six degenerate ground states (all states with one
// frustrated bond) and two excited states (all aligned). Check the
// empirical ratio against the Boltzmann factor.
func TestFrustratedTriangleDistribution(t *testing.T) {
	model := ising.NewModel(3)
	model.J.Set(0, 1, -1)
	model.J.Set(1, 2, -1)
	model.J.Set(0, 2, -1)
	beta := 0.7
	m := New(model, rng.New(53))
	aligned, frustrated := 0, 0
	const samples = 300000
	for k := 0; k < samples; k++ {
		m.Sweep(beta)
		s := m.State()
		if s[0] == s[1] && s[1] == s[2] {
			aligned++
		} else {
			frustrated++
		}
	}
	// E_aligned = +3·(−(−1)) ... compute directly:
	up := ising.Spins{1, 1, 1}
	mixed := ising.Spins{1, 1, -1}
	dE := model.Energy(up) - model.Energy(mixed)
	// P(aligned)/P(mixed-per-state) = exp(−β dE); 2 aligned states, 6 mixed.
	wantRatio := 2 * math.Exp(-beta*dE) / 6
	gotRatio := float64(aligned) / float64(frustrated)
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.08 {
		t.Fatalf("aligned/frustrated ratio %v, want %v", gotRatio, wantRatio)
	}
}

func TestSetStateRejectsWrongLength(t *testing.T) {
	src := rng.New(59)
	m := New(randomModel(src, 4), src.Split())
	defer func() {
		if recover() == nil {
			t.Fatal("SetState accepted wrong length")
		}
	}()
	m.SetState(ising.NewSpins(5))
}

func TestUpdateBiasesRejectsWrongLength(t *testing.T) {
	src := rng.New(61)
	m := New(randomModel(src, 4), src.Split())
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateBiases accepted wrong length")
		}
	}()
	m.UpdateBiases(vecmat.NewVec(3))
}

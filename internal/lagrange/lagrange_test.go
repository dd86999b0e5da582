package lagrange

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/penalty"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/vecmat"
)

func toyProblem() (*ising.QUBO, *constraint.Extended) {
	sys := constraint.NewSystem(2)
	sys.Add(vecmat.Vec{1, 1}, constraint.LE, 1)
	ext := sys.Extend(constraint.Binary)
	f := ising.NewQUBO(ext.NTotal)
	f.AddLinear(0, -1)
	f.AddLinear(1, -2)
	return penalty.Build(f, ext, 0.5), ext
}

func TestUpdateIsSubgradientStep(t *testing.T) {
	l := New(2, 0.5)
	l.Update(vecmat.Vec{2, -4})
	if l.Values[0] != 1 || l.Values[1] != -2 {
		t.Fatalf("λ = %v", l.Values)
	}
	if l.Steps() != 1 {
		t.Fatalf("Steps = %d", l.Steps())
	}
}

func TestNonNegativeProjection(t *testing.T) {
	l := New(1, 1)
	l.NonNegative = true
	l.Update(vecmat.Vec{-3})
	if l.Values[0] != 0 {
		t.Fatalf("projected λ = %v", l.Values[0])
	}
}

func TestUpdatePanicsOnLengthMismatch(t *testing.T) {
	l := New(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Update accepted wrong-length residual")
		}
	}()
	l.Update(vecmat.Vec{1})
}

// Property: Apply(E, λ).Energy(x) == E.Energy(x) + λᵀ(Ax−B) everywhere.
func TestApplyMatchesDefinition(t *testing.T) {
	src := rng.New(31)
	f := func(raw uint8) bool {
		e, ext := toyProblem()
		l := New(ext.M(), 1)
		for i := range l.Values {
			l.Values[i] = src.Sym() * 10
		}
		lag := Apply(e, ext, l)
		for mask := 0; mask < 1<<ext.NTotal; mask++ {
			x := make(ising.Bits, ext.NTotal)
			for i := 0; i < ext.NTotal; i++ {
				if mask>>i&1 == 1 {
					x[i] = 1
				}
			}
			g := ext.Residuals(x)
			want := e.Energy(x) + l.Values.Dot(g)
			if math.Abs(lag.Energy(x)-want) > 1e-9 {
				return false
			}
		}
		_ = raw
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyZeroLambdaIsIdentity(t *testing.T) {
	e, ext := toyProblem()
	l := New(ext.M(), 1)
	lag := Apply(e, ext, l)
	x := ising.Bits{1, 1, 0}
	if lag.Energy(x) != e.Energy(x) {
		t.Fatal("zero λ changed energy")
	}
}

// BiasDelta must agree with the full Apply + ToIsing path: the spin model of
// Apply(E,λ) has h' = h_E − delta and Const' = Const_E + shift.
func TestBiasDeltaMatchesFullConversion(t *testing.T) {
	src := rng.New(37)
	e, ext := toyProblem()
	base := e.ToIsing()
	l := New(ext.M(), 1)
	for trial := 0; trial < 30; trial++ {
		for i := range l.Values {
			l.Values[i] = src.Sym() * 8
		}
		full := Apply(e, ext, l).ToIsing()
		delta := vecmat.NewVec(ext.NTotal)
		shift := BiasDelta(delta, ext, l)
		for i := 0; i < ext.NTotal; i++ {
			want := base.H[i] - delta[i]
			if math.Abs(full.H[i]-want) > 1e-9 {
				t.Fatalf("h[%d]: full %v vs base−delta %v", i, full.H[i], want)
			}
		}
		if math.Abs(full.Const-(base.Const+shift)) > 1e-9 {
			t.Fatalf("const: full %v vs base+shift %v", full.Const, base.Const+shift)
		}
		// J must be untouched by λ.
		for i := 0; i < ext.NTotal; i++ {
			for j := 0; j < ext.NTotal; j++ {
				if full.J.At(i, j) != base.J.At(i, j) {
					t.Fatalf("λ modified J[%d,%d]", i, j)
				}
			}
		}
	}
}

// On a tiny QKP-like problem where we can solve min_x L exactly, subgradient
// ascent must close the gap: LB_L(λ*) == OPT (Fig. 2b). The toy problem is
// min -x0-2x1 s.t. x0+x1+s=1 with P<Pc chosen small.
func TestSubgradientClosesGapOnToyProblem(t *testing.T) {
	e, ext := toyProblem()
	// Constrained optimum: x=(0,1), f=-2.
	const opt = -2.0
	l := New(ext.M(), 0.3)
	argmin := func(q *ising.QUBO) (ising.Bits, float64) {
		bestE := math.Inf(1)
		var best ising.Bits
		for mask := 0; mask < 1<<ext.NTotal; mask++ {
			x := make(ising.Bits, ext.NTotal)
			for i := 0; i < ext.NTotal; i++ {
				if mask>>i&1 == 1 {
					x[i] = 1
				}
			}
			if en := q.Energy(x); en < bestE {
				bestE, best = en, x
			}
		}
		return best, bestE
	}
	var lastLB float64
	for k := 0; k < 200; k++ {
		lag := Apply(e, ext, l)
		x, lb := argmin(lag)
		lastLB = lb
		l.Update(ext.Residuals(x))
	}
	if math.Abs(lastLB-opt) > 0.25 {
		t.Fatalf("dual ascent did not approach OPT: LB=%v, OPT=%v, λ=%v", lastLB, opt, l.Values)
	}
}

func TestCloneIndependence(t *testing.T) {
	l := New(2, 1)
	l.Update(vecmat.Vec{1, 1})
	c := l.Clone()
	c.Update(vecmat.Vec{1, 1})
	if l.Values[0] != 1 || c.Values[0] != 2 {
		t.Fatalf("clone aliasing: %v %v", l.Values, c.Values)
	}
	if l.Steps() != 1 || c.Steps() != 2 {
		t.Fatalf("steps: %d %d", l.Steps(), c.Steps())
	}
}

func TestApplyPanicsOnMismatch(t *testing.T) {
	e, ext := toyProblem()
	l := New(ext.M()+1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply accepted mismatched multipliers")
		}
	}()
	Apply(e, ext, l)
}

func TestStepSchedules(t *testing.T) {
	c := ConstantStep{Eta0: 5}
	if c.Eta(0) != 5 || c.Eta(100) != 5 {
		t.Fatal("constant step varied")
	}
	d := DecayStep{Eta0: 8, Power: 0.5}
	if d.Eta(0) != 8 {
		t.Fatalf("decay η₀ = %v", d.Eta(0))
	}
	if got := d.Eta(3); math.Abs(got-4) > 1e-12 { // 8/√4
		t.Fatalf("decay η₃ = %v", got)
	}
	lin := DecayStep{Eta0: 6, Power: 1}
	if got := lin.Eta(2); math.Abs(got-2) > 1e-12 { // 6/3
		t.Fatalf("linear decay η₂ = %v", got)
	}
	odd := DecayStep{Eta0: 1, Power: 0.25}
	if got := odd.Eta(15); math.Abs(got-0.5) > 1e-12 { // 16^-.25
		t.Fatalf("power decay = %v", got)
	}
	zero := DecayStep{Eta0: 7, Power: 0}
	if zero.Eta(9) != 7 {
		t.Fatal("power-0 decay should be constant")
	}
}

func TestUpdateScheduledUsesStepIndex(t *testing.T) {
	l := New(1, 0) // Eta field unused by scheduled updates
	sched := DecayStep{Eta0: 4, Power: 1}
	l.UpdateScheduled(vecmat.Vec{1}, sched) // +4/1
	l.UpdateScheduled(vecmat.Vec{1}, sched) // +4/2
	want := 4.0 + 2.0
	if math.Abs(l.Values[0]-want) > 1e-12 {
		t.Fatalf("λ = %v, want %v", l.Values[0], want)
	}
	if l.Steps() != 2 {
		t.Fatalf("steps = %d", l.Steps())
	}
}

func TestUpdateScheduledProjection(t *testing.T) {
	l := New(1, 0)
	l.NonNegative = true
	l.UpdateScheduled(vecmat.Vec{-5}, ConstantStep{Eta0: 1})
	if l.Values[0] != 0 {
		t.Fatalf("projected λ = %v", l.Values[0])
	}
}

// Diminishing steps must still close the toy gap (classical subgradient
// convergence), matching the constant-step behaviour of
// TestSubgradientClosesGapOnToyProblem.
func TestDecayingStepsCloseGap(t *testing.T) {
	e, ext := toyProblem()
	const opt = -2.0
	l := New(ext.M(), 0)
	sched := DecayStep{Eta0: 1.5, Power: 0.5}
	argmin := func(q *ising.QUBO) (ising.Bits, float64) {
		bestE := math.Inf(1)
		var best ising.Bits
		for mask := 0; mask < 1<<ext.NTotal; mask++ {
			x := make(ising.Bits, ext.NTotal)
			for i := 0; i < ext.NTotal; i++ {
				if mask>>i&1 == 1 {
					x[i] = 1
				}
			}
			if en := q.Energy(x); en < bestE {
				bestE, best = en, x
			}
		}
		return best, bestE
	}
	var lastLB float64
	for k := 0; k < 400; k++ {
		lag := Apply(e, ext, l)
		x, lb := argmin(lag)
		lastLB = lb
		l.UpdateScheduled(ext.Residuals(x), sched)
	}
	if math.Abs(lastLB-opt) > 0.3 {
		t.Fatalf("diminishing-step ascent did not approach OPT: LB=%v", lastLB)
	}
}

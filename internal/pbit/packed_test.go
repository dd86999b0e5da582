package pbit

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// scalarFleet builds 64 scalar machines whose sources are split off a
// fresh source with the same seed the packed machine was given — Split is
// deterministic, so lane r's source and machine r's source carry identical
// streams.
func scalarFleet(model *ising.Model, seed uint64, sparse bool) []interface {
	State() ising.Spins
	Randomize()
	Sweep(float64)
	UpdateBiases(vecmat.Vec)
} {
	base := rng.New(seed)
	fleet := make([]interface {
		State() ising.Spins
		Randomize()
		Sweep(float64)
		UpdateBiases(vecmat.Vec)
	}, Lanes)
	for r := range fleet {
		if sparse {
			fleet[r] = NewSparse(model, base.Split())
		} else {
			fleet[r] = New(model, base.Split())
		}
	}
	return fleet
}

// trajectoryBetas spans the unsaturated regime, the mixed regime, and deep
// saturation (β·I far beyond ±5.06), so both the Padé path and the
// all-saturated fast path of the packed threshold kernel are exercised.
func trajectoryBetas() []float64 {
	betas := make([]float64, 0, 40)
	for k := 0; k < 40; k++ {
		betas = append(betas, 0.05+float64(k)*0.25)
	}
	return betas
}

type packedAny interface {
	PackedKernel
	RecomputeFields()
	LaneFieldConsistencyError(r int) float64
	laneField(i, r int) float64
}

// windowCounts are the lane-window splits every packed differential runs
// at: one window (the single-group layout), the even split, an uneven
// split (24, 24, 16 lanes), mixed widths (16, 16, 16, 8, 8), one octet
// each.
var windowCounts = []int{1, 2, 3, 5, 8}

// laneField returns lane r's local field of spin i (test hook).
func (c *packedCore) laneField(i, r int) float64 {
	win, k := c.lane(r)
	return win.fields[i*win.w+k]
}

// laneWord returns spin i's states as one 64-lane word (test hook).
func (c *packedCore) laneWord(i int) uint64 {
	var word uint64
	for j := range c.wins {
		word |= c.wins[j].states[i] << c.wins[j].lo
	}
	return word
}

// runDifferential sweeps packed and scalar fleets in lockstep and requires
// every lane's state to equal its scalar twin's after every sweep, and
// every lane's fields to stay numerically equal (±0.0 sign differences are
// allowed — they are provably invisible to all threshold decisions).
func runDifferential(t *testing.T, pm packedAny, fleet []interface {
	State() ising.Spins
	Randomize()
	Sweep(float64)
	UpdateBiases(vecmat.Vec)
}, scalarField func(m interface{}, i int) float64) {
	t.Helper()
	n := pm.N()
	pm.Randomize()
	for _, m := range fleet {
		m.Randomize()
	}
	got := ising.NewSpins(n)
	for step, beta := range trajectoryBetas() {
		pm.Sweep(beta)
		for r, m := range fleet {
			m.Sweep(beta)
			pm.LaneStateInto(got, r)
			want := m.State()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d lane %d spin %d: packed %d scalar %d", step, r, i, got[i], want[i])
				}
			}
		}
	}
	for r, m := range fleet {
		for i := 0; i < n; i++ {
			if pf, sf := pm.laneField(i, r), scalarField(m, i); pf != sf {
				t.Fatalf("lane %d spin %d: packed field %v scalar field %v", r, i, pf, sf)
			}
		}
		if drift := pm.LaneFieldConsistencyError(r); drift > 1e-9 {
			t.Fatalf("lane %d field drift %v", r, drift)
		}
	}
}

// sparseQUBOModel is a 40-spin sparse model whose spin 0 stays isolated,
// exercising the empty CSR row.
func sparseQUBOModel(seed uint64) *ising.Model {
	src := rng.New(seed)
	q := ising.NewQUBO(40)
	for i := 0; i < 40; i++ {
		q.AddLinear(i, src.Sym())
		if i == 0 {
			continue
		}
		for j := i + 1; j < 40; j++ {
			if src.Bool(0.15) {
				q.AddQuad(i, j, src.Sym())
			}
		}
	}
	return q.ToIsing()
}

// The dense pull kernels must match the scalar fleet under every tier, at
// every window count.
func TestPackedDenseMatchesScalarFleet(t *testing.T) {
	model := randomModel(rng.New(21), 33)
	check := func(t *testing.T, tier string) {
		withTier(tier, func() {
			for _, k := range windowCounts {
				pm := NewPackedWindows(model, rng.New(777), k)
				runDifferential(t, pm, scalarFleet(model, 777, false),
					func(m interface{}, i int) float64 { return m.(*Machine).field[i] })
			}
		})
	}
	vectorTiers(t, check)
	t.Run("portable", func(t *testing.T) { check(t, "portable") })
}

func TestPackedSparseMatchesScalarFleet(t *testing.T) {
	model := sparseQUBOModel(22)
	for _, k := range windowCounts {
		pm := NewPackedSparseWindows(model, rng.New(333), k)
		runDifferential(t, pm, scalarFleet(model, 333, true),
			func(m interface{}, i int) float64 { return m.(*SparseMachine).field[i] })
	}
}

// A concurrent AnnealRun (windows 1…k−1 on goroutines) must leave every
// lane where its scalar twin's AnnealInto ends, and a second run, which
// starts from fresh random lanes, where the twin's second run ends — for
// both kernels at every window count. Under -race this is also the
// data-race check of the run.
func TestPackedWindowedAnnealRunMatchesScalar(t *testing.T) {
	sched := schedule.Linear{Start: 0.1, End: 3}
	for _, c := range []struct {
		name   string
		model  *ising.Model
		sparse bool
	}{
		{"dense", randomModel(rng.New(24), 27), false},
		{"sparse", sparseQUBOModel(25), true},
	} {
		for _, k := range windowCounts {
			var pm packedAny
			if c.sparse {
				pm = NewPackedSparseWindows(c.model, rng.New(888), k)
			} else {
				pm = NewPackedWindows(c.model, rng.New(888), k)
			}
			fleet := scalarFleet(c.model, 888, c.sparse)
			n := c.model.N()
			pm.AnnealRun(sched, 30)
			pm.AnnealRun(sched, 10)
			pm.Close()
			got, want := ising.NewSpins(n), ising.NewSpins(n)
			for r, m := range fleet {
				anneal := m.(interface {
					AnnealInto(ising.Spins, schedule.Schedule, int)
				}).AnnealInto
				anneal(want, sched, 30)
				anneal(want, sched, 10)
				pm.LaneStateInto(got, r)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, %d windows: lane %d spin %d: packed %d scalar %d", c.name, k, r, i, got[i], want[i])
					}
				}
			}
			if pm.Sweeps() != 40 {
				t.Fatalf("%s, %d windows: packed sweep count %d, want 40", c.name, k, pm.Sweeps())
			}
		}
	}
}

// windowGoroutines counts the live window goroutines of every packed
// machine, once the count settles at want or five seconds pass: a closed
// machine's goroutines exit shortly after Close returns.
func windowGoroutines(want int) int {
	buf := make([]byte, 1<<20)
	count := func() int {
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*packedCore).startWindows.func1(")
	}
	n := count()
	for deadline := time.Now().Add(5 * time.Second); n != want && time.Now().Before(deadline); n = count() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// The first concurrent run starts one goroutine per window beyond the
// first; Close stops them, and the machine stays usable (its next run
// starts them again and still matches a machine that never closed).
func TestPackedCloseStopsWindowGoroutines(t *testing.T) {
	model := randomModel(rng.New(29), 12)
	sched := schedule.Linear{Start: 0.1, End: 3}
	if n := windowGoroutines(0); n != 0 {
		t.Fatalf("%d window goroutines outlived earlier tests", n)
	}
	pm := NewPackedWindows(model, rng.New(3), 5)
	if n := windowGoroutines(0); n != 0 {
		t.Fatalf("construction started %d window goroutines", n)
	}
	pm.AnnealRun(sched, 10)
	if n := windowGoroutines(4); n != 4 {
		t.Fatalf("5-window run left %d window goroutines, want 4", n)
	}
	pm.Close()
	if n := windowGoroutines(0); n != 0 {
		t.Fatalf("Close left %d window goroutines running", n)
	}
	pm.AnnealRun(sched, 10)
	pm.Close()
	ref := NewPackedWindows(model, rng.New(3), 5)
	ref.AnnealRun(sched, 10)
	ref.AnnealRun(sched, 10)
	ref.Close()
	for i := 0; i < model.N(); i++ {
		if pm.laneWord(i) != ref.laneWord(i) {
			t.Fatalf("spin %d: closed-and-restarted machine %#x, uninterrupted %#x", i, pm.laneWord(i), ref.laneWord(i))
		}
	}
	if n := windowGoroutines(0); n != 0 {
		t.Fatalf("%d window goroutines outlived Close", n)
	}
}

// The constructor builds one lane's fields and copies them to every lane;
// that must equal a from-scratch RecomputeFields bit for bit, for both
// kernels at every window count.
func TestPackedConstructorFieldsMatchRecompute(t *testing.T) {
	dense, sparse := randomModel(rng.New(26), 31), sparseQUBOModel(27)
	for _, k := range windowCounts {
		for name, pm := range map[string]packedAny{
			"dense":  NewPackedWindows(dense, rng.New(1), k),
			"sparse": NewPackedSparseWindows(sparse, rng.New(1), k),
		} {
			n := pm.N()
			built := make([]uint64, n*Lanes)
			for i := 0; i < n; i++ {
				for r := 0; r < Lanes; r++ {
					built[i*Lanes+r] = math.Float64bits(pm.laneField(i, r))
				}
			}
			pm.RecomputeFields()
			for i := 0; i < n; i++ {
				for r := 0; r < Lanes; r++ {
					if got := math.Float64bits(pm.laneField(i, r)); got != built[i*Lanes+r] {
						t.Fatalf("%s, %d windows: field (%d,%d) built %x, recomputed %x", name, k, i, r, built[i*Lanes+r], got)
					}
				}
			}
		}
	}
}

// boundModel is a 9-spin model with small random couplings plus two
// frustrated triangles, {0, 1, 5} and {3, 6, 8}, coupled at −big. A
// triangle spin whose partners disagree sees a small field and flips
// often, and every flip reaches its partners through a dense path: the
// hand-off (0 to 1), the pair pull (5 pulls 0 and 1 with 4), the odd last
// spin's one-block pull (8 pulls 3 and 6), and the flush, by pairs (0
// takes 1 alone, then 5; 3 and 6 take 8). |J| sums stay within
// 2·big, which fits while big ≤ fusedBound.
func boundModel(big float64) *ising.Model {
	src := rng.New(47)
	q := ising.NewQUBO(9)
	for i := 0; i < 9; i++ {
		q.AddLinear(i, src.Sym())
		for j := i + 1; j < 9; j++ {
			q.AddQuad(i, j, src.Sym())
		}
	}
	m := q.ToIsing()
	for _, tri := range [][3]int{{0, 1, 5}, {3, 6, 8}} {
		m.J.Set(tri[0], tri[1], -big)
		m.J.Set(tri[0], tri[2], -big)
		m.J.Set(tri[1], tri[2], -big)
	}
	return m
}

// The AVX-512 pull and flush fuse J·δ into the add, which is exact only
// while every |J_ij| ≤ fusedBound. A coupling at the bound keeps the fused
// path; one ulp above it, 2J overflows — the scalar machine's field turns
// ±Inf where a fused one would stay finite — and the machine must take
// the multiply-then-add bodies. Either way every lane must follow its
// scalar twin, fields included (±0 equal, NaN equal to NaN), under every
// tier at every window count.
func TestPackedFusedBoundMatchesScalar(t *testing.T) {
	same := func(a, b float64) bool { return a == b || a != a && b != b }
	for _, c := range []struct {
		name  string
		big   float64
		fused bool
	}{
		{"at bound", fusedBound, true},
		{"above bound", math.Nextafter(fusedBound, math.Inf(1)), false},
	} {
		model := boundModel(c.big)
		check := func(t *testing.T, tier string) {
			withTier(tier, func() {
				for _, k := range windowCounts {
					pm := NewPackedWindows(model, rng.New(919), k)
					if pm.fused != c.fused {
						t.Fatalf("%d windows: fused = %v, want %v", k, pm.fused, c.fused)
					}
					base := rng.New(919)
					fleet := make([]*Machine, Lanes)
					for r := range fleet {
						fleet[r] = New(model, base.Split())
						fleet[r].Randomize()
					}
					pm.Randomize()
					got := ising.NewSpins(9)
					for step, beta := range []float64{0.05, 0.3, 1, 3} {
						pm.Sweep(beta)
						for r, m := range fleet {
							m.Sweep(beta)
							pm.LaneStateInto(got, r)
							for i, s := range m.State() {
								if got[i] != s {
									t.Fatalf("%d windows, sweep %d: lane %d spin %d: packed %d scalar %d", k, step, r, i, got[i], s)
								}
								if pf, sf := pm.laneField(i, r), m.field[i]; !same(pf, sf) {
									t.Fatalf("%d windows, sweep %d: lane %d spin %d: packed field %v scalar %v", k, step, r, i, pf, sf)
								}
							}
						}
					}
				}
			})
		}
		t.Run(c.name, func(t *testing.T) {
			vectorTiers(t, check)
			t.Run("portable", func(t *testing.T) { check(t, "portable") })
		})
	}
}

// Windows split the 64 lanes into octet-aligned runs as even as octets
// allow, in lane order, and the window count is clamped to [1, 8].
func TestPackedWindowLayout(t *testing.T) {
	model := randomModel(rng.New(28), 5)
	for k := -1; k <= maxWindows+2; k++ {
		pm := NewPackedWindows(model, rng.New(1), k)
		want := min(max(k, 1), maxWindows)
		if len(pm.wins) != want {
			t.Fatalf("windows(%d) = %d, want %d", k, len(pm.wins), want)
		}
		lo, widest, narrowest := 0, 0, Lanes
		for _, win := range pm.wins {
			if win.lo != lo || win.w%octet != 0 || len(win.fields) != model.N()*win.w {
				t.Fatalf("windows(%d): window at %d has lo %d width %d", k, lo, win.lo, win.w)
			}
			lo += win.w
			widest, narrowest = max(widest, win.w), min(narrowest, win.w)
		}
		if lo != Lanes || widest-narrowest > octet {
			t.Fatalf("windows(%d): lanes %d, widths %d…%d", k, lo, narrowest, widest)
		}
	}
}

// Every vector tier and the portable Go kernels must produce
// bit-identical trajectories: run the same seeded anneal under a tier and
// under the portable path and compare every lane's final state and every
// field word, at every window count.
func TestPackedNativeMatchesPortable(t *testing.T) {
	model := randomModel(rng.New(23), 29)
	sched := schedule.Linear{Start: 0.1, End: 3.5}

	vectorTiers(t, func(t *testing.T, tier string) {
		for _, k := range windowCounts {
			run := func(tier string) (d *PackedMachine, s *PackedSparseMachine) {
				withTier(tier, func() {
					d = NewPackedWindows(model, rng.New(99), k)
					d.AnnealRun(sched, 50)
					d.Close()
					s = NewPackedSparseWindows(model, rng.New(99), k)
					s.AnnealRun(sched, 50)
					s.Close()
				})
				return d, s
			}
			dn, sn := run(tier)
			dp, sp := run("portable")

			for i := 0; i < model.N(); i++ {
				if dn.laneWord(i) != dp.laneWord(i) {
					t.Fatalf("%d windows: dense spin %d: %s state %#x portable %#x", k, i, tier, dn.laneWord(i), dp.laneWord(i))
				}
				if sn.laneWord(i) != sp.laneWord(i) {
					t.Fatalf("%d windows: sparse spin %d: %s state %#x portable %#x", k, i, tier, sn.laneWord(i), sp.laneWord(i))
				}
				for r := 0; r < Lanes; r++ {
					if a, b := math.Float64bits(dn.laneField(i, r)), math.Float64bits(dp.laneField(i, r)); a != b {
						t.Fatalf("%d windows: dense field (%d,%d): %s %x portable %x", k, i, r, tier, a, b)
					}
					if a, b := math.Float64bits(sn.laneField(i, r)), math.Float64bits(sp.laneField(i, r)); a != b {
						t.Fatalf("%d windows: sparse field (%d,%d): %s %x portable %x", k, i, r, tier, a, b)
					}
				}
			}
		}
	})
}

// Per-lane bias reprogramming must follow the scalar UpdateBiases
// arithmetic: diverge the lanes' biases, sweep, and compare each lane to a
// scalar machine given the same bias sequence.
func TestUpdateLaneBiasesMatchesScalar(t *testing.T) {
	model := randomModel(rng.New(31), 20)
	for _, k := range windowCounts {
		pm := NewPackedWindows(model, rng.New(444), k)
		fleet := scalarFleet(model, 444, false)

		pm.Randomize()
		for _, m := range fleet {
			m.Randomize()
		}
		h := vecmat.NewVec(20)
		got := ising.NewSpins(20)
		for step := 0; step < 10; step++ {
			for r, m := range fleet {
				for i := range h {
					h[i] = float64(r)*0.01 - float64(step)*0.1
				}
				pm.UpdateLaneBiases(r, h)
				m.UpdateBiases(h)
			}
			pm.Sweep(1.2)
			for r, m := range fleet {
				m.Sweep(1.2)
				pm.LaneStateInto(got, r)
				want := m.State()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d windows: step %d lane %d spin %d mismatch", k, step, r, i)
					}
				}
			}
		}
		for r := 0; r < Lanes; r++ {
			if drift := pm.LaneFieldConsistencyError(r); drift > 1e-9 {
				t.Fatalf("%d windows: lane %d drift %v after bias reprogramming", k, r, drift)
			}
		}
	}
}

// Per-spin magnetization (mean over lanes) must match the scalar fleet's —
// the statistic the replica pool's aggregation consumes.
func TestPackedMagnetizationMatchesScalarFleet(t *testing.T) {
	src := rng.New(41)
	model := randomModel(src, 16)
	pm := NewPacked(model, rng.New(666))
	fleet := scalarFleet(model, 666, false)

	sched := schedule.Linear{Start: 0.1, End: 2.0}
	pm.AnnealRun(sched, 30)
	scalarSum := make([]int, 16)
	for _, m := range fleet {
		m.Randomize()
		for t := 0; t < 30; t++ {
			m.Sweep(sched.Beta(t, 30))
		}
		for i, v := range m.State() {
			scalarSum[i] += int(v)
		}
	}
	lane := ising.NewSpins(16)
	for i := 0; i < 16; i++ {
		packedSum := 0
		for r := 0; r < Lanes; r++ {
			pm.LaneStateInto(lane, r)
			packedSum += int(lane[i])
		}
		if packedSum != scalarSum[i] {
			t.Fatalf("spin %d magnetization: packed %d scalar %d", i, packedSum, scalarSum[i])
		}
	}
	if pm.Sweeps() != 30 {
		t.Fatalf("packed sweep count %d, want 30", pm.Sweeps())
	}
}

// Multi-spin coding: 64 replicas of one Hamiltonian swept in lockstep,
// their spin states packed one bit per replica into uint64 words. Every
// J-row load, noise batch, and threshold pass is amortized across the
// lanes — the classic p-computer trick the replica pool
// (internal/core/parallel.go) previously paid per replica.
//
// Layout ("lane" = replica index r ∈ [0, 64)). The lanes are split into
// k ≤ 8 lane windows; window j holds lanes [lo, lo+w), w a multiple of 8
// (the octet rng.FillSym8Strided fills), and owns:
//
//   - states[i] bit k      — spin i of lane lo+k (+1 when set, −1 clear)
//   - fields[i·w+k]        — lane lo+k's local field I_i, lane-blocked so
//     the per-spin threshold pass and the flip propagation both touch w
//     contiguous float64 (w/8 cache lines, w/4 AVX2 vectors)
//   - hb[i·w+k]            — lane lo+k's private bias h_i (each lane runs
//     its own λ trajectory, so biases diverge across lanes)
//   - noise[i·w+k]         — per-sweep uniform noise, one draw per lane;
//     once spin i is visited its block is spent, and the dense sweep
//     writes a flipped spin's per-lane deltas δ_i over it
//   - flips                — the dense sweep's list of this sweep's flipped
//     spins, in visit order (n entries, allocated once)
//   - its own CSR flip scratch (per-lane deltas, active groups)
//
// The windows partition one n×64 array each for fields, biases and noise
// (window j's n×w block sits at offset n·lo), so one window (w = 64) is
// the single-group layout byte for byte and more windows cost no memory.
// No window reads another's lanes, so AnnealRun sweeps the windows of one
// run concurrently — windows 1…k−1 on goroutines, window 0 on the caller
// — and joins once per run.
//
// Couplings stay real-valued, so the field arithmetic is ordinary float64
// math; only the state and the per-spin flip/want decisions are bitwise.
// Each lane owns an independent rng.Source consuming draws in exactly the
// order a scalar machine with that source would (Randomize: one Bool per
// spin; Sweep: one Sym per spin), and the field updates replicate the
// scalar kernels' accumulation order per lane — so given the same
// per-replica sources the packed kernels reproduce 64 scalar trajectories
// bit-for-bit, at any window count. The dense sweep pulls rather than
// pushes: each spin brings its own field block up to date from the
// sweep's earlier flips just before its threshold pass, and one flush
// after the last visit adds the later ones — the same terms in the same
// per-lane order as the scalar flip walk, up to ±0 addends. It visits the
// spins in pairs, so one list walk serves two field blocks.
// packed_test.go pins this differentially against the scalar machines;
// the golden-trajectory tests keep pinning the scalar path itself. See
// DESIGN.md §5.5.
package pbit

import (
	"fmt"
	"math"
	"sync"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/vecmat"
)

// Lanes is the replica capacity of one packed machine: the word width.
const Lanes = 64

// laneGroups is Lanes/4, the most 4-lane vector groups one window holds.
const laneGroups = Lanes / 4

// octet is the lane granularity of a window: rng.FillSym8Strided fills
// eight adjacent lanes per call, and eight float64 are one cache line.
const octet = 8

// maxWindows is the most lane windows a packed machine splits into: one
// octet each.
const maxWindows = Lanes / octet

// PackedKernel is the contract shared by the dense and CSR packed
// machines; internal/core's packed replica engine drives it.
type PackedKernel interface {
	N() int
	// Sweeps reports packed sweep count: one Sweep advances every lane by
	// one Monte-Carlo sweep, so this equals each lane's per-replica count.
	Sweeps() int64
	// ReseedLane gives lane r a fresh randomness source (cf. Machine.Reseed).
	ReseedLane(r int, src *rng.Source)
	// UpdateLaneBiases reprograms lane r's private bias vector (cf.
	// Machine.UpdateBiases; each lane follows its own λ trajectory).
	UpdateLaneBiases(r int, h vecmat.Vec)
	// LaneStateInto copies lane r's current configuration into dst.
	LaneStateInto(dst ising.Spins, r int)
	// SetAllLanesState installs one configuration on every lane and
	// recomputes fields (the warm-start path: every replica of a pooled
	// solve warm-starts from the same assignment).
	SetAllLanesState(s ising.Spins)
	// Randomize draws a fresh uniform configuration per lane.
	Randomize()
	// Sweep runs one Monte-Carlo sweep of all 64 lanes, window by window
	// on the caller.
	Sweep(beta float64)
	// AnnealRun runs one annealing run on every lane: a fresh random
	// start, then `sweeps` packed sweeps with β following sched (cf.
	// Machine.AnnealInto). The lane windows run concurrently and join
	// once, before AnnealRun returns.
	AnnealRun(sched schedule.Schedule, sweeps int)
	// AnnealFromRun is AnnealRun from the current lane states, without
	// re-randomizing (the warm-start path, cf. Machine.AnnealFromInto).
	AnnealFromRun(sched schedule.Schedule, sweeps int)
	// Close stops the goroutines the windows' concurrent runs use.
	Close()
}

// window is one octet-aligned run of lanes, [lo, lo+w), with its own
// lane-blocked arrays (stride w), state words and flip scratch. Bit k of a
// state word is lane lo+k; bits ≥ w stay clear.
type window struct {
	lo, w  int
	states []uint64
	fields []float64
	hb     []float64
	noise  []float64
	flips  []int32        // the dense sweep's flipped spins, in visit order
	srcs   []*rng.Source  // the machine's sources for lanes lo…lo+w−1
	d      [Lanes]float64 // per-lane CSR flip deltas (±2 or 0), scratch
	groups [laneGroups]int32
	// Keeps d and groups, written on every multi-lane CSR flip, off the
	// cache lines of the next window, which sweeps on another core.
	_ [64]byte
}

// randomize draws a fresh uniform configuration per lane, each lane
// consuming exactly the draws — in the same order — a scalar Randomize
// with the same source would (one Bool(0.5) per spin).
func (win *window) randomize() {
	clear(win.states)
	for k, src := range win.srcs {
		bit := uint64(1) << k
		for i := range win.states {
			if src.Bool(0.5) {
				win.states[i] |= bit
			}
		}
	}
}

// fillNoise batch-draws each lane's per-sweep noise into the window's
// lane-blocked buffer: lane lo+k's draw for spin i lands at noise[i·w+k],
// preserving each lane's scalar stream order (one Sym per spin).
//
//saim:hotpath
func (win *window) fillNoise() {
	n := len(win.states)
	if n == 0 {
		return
	}
	srcs, noise := win.srcs, win.noise
	for len(srcs) >= octet {
		rng.FillSym8Strided((*[octet]*rng.Source)(srcs), noise, n, win.w)
		srcs, noise = srcs[octet:], noise[octet:]
	}
}

// spinFloats expands the window's states into ±1.0 per (spin, lane) in
// its noise buffer, which is dead outside a sweep.
func (win *window) spinFloats() {
	w := win.w
	for i, s := range win.states {
		for k := 0; k < w; k++ {
			win.noise[i*w+k] = float64(int64(s>>k&1)*2 - 1)
		}
	}
}

// packedCore holds the windowed lane state shared by both packed
// machines. It must not be copied: the window goroutines and each
// window's source slice point back into it.
type packedCore struct {
	n      int
	wins   []window
	srcs   [Lanes]*rng.Source
	sweeps int64

	// The machine's window kernels, bound once at construction.
	sweepWin     func(win *window, beta float64)
	recomputeWin func(win *window)

	// One run's parameters: written before the windows start, read-only
	// while they run.
	sched     schedule.Schedule
	runSweeps int
	fresh     bool
	// start[j-1] hands window j a run. Its goroutine, started by the first
	// concurrent run and kept until Close, signals wg when the run is done,
	// so a solve starts k−1 goroutines, not k−1 per run, and dispatching a
	// run allocates nothing.
	start []chan struct{}
	wg    sync.WaitGroup
}

// build splits the lanes into `windows` octet-aligned windows (clamped to
// [1, maxWindows]) as even as octets allow — 3 windows hold 24, 24 and 16
// lanes — with per-lane sources split off src in lane order and every
// lane's bias set to h. Fields are the caller's to build.
func (c *packedCore) build(h vecmat.Vec, src *rng.Source, windows int, sweepWin func(*window, float64), recomputeWin func(*window)) {
	n := len(h)
	nwin := min(max(windows, 1), maxWindows)
	c.n = n
	c.sweepWin, c.recomputeWin = sweepWin, recomputeWin
	for r := range c.srcs {
		c.srcs[r] = src.Split()
	}
	// Every block below is a multiple of 64 bytes, which Go's size
	// classes place on 64-byte boundaries, so window boundaries are cache
	// line boundaries: state words and flip lists pad each window to whole
	// lines.
	fields := make([]float64, n*Lanes)
	hb := make([]float64, n*Lanes)
	noise := make([]float64, n*Lanes)
	stride := (n + octet - 1) &^ (octet - 1)
	states := make([]uint64, nwin*stride)
	fstride := (n + 2*octet - 1) &^ (2*octet - 1)
	flips := make([]int32, nwin*fstride)
	c.wins = make([]window, nwin)
	lo := 0
	for j := range c.wins {
		w := octet * (maxWindows / nwin)
		if j < maxWindows%nwin {
			w += octet
		}
		win := &c.wins[j]
		win.lo, win.w = lo, w
		win.states = states[j*stride : j*stride+n]
		win.fields = fields[n*lo : n*(lo+w)]
		win.hb = hb[n*lo : n*(lo+w)]
		win.noise = noise[n*lo : n*(lo+w)]
		win.flips = flips[j*fstride : j*fstride+n]
		win.srcs = c.srcs[lo : lo+w]
		for i, v := range h {
			for k := 0; k < w; k++ {
				win.hb[i*w+k] = v
			}
		}
		lo += w
	}
}

// setUniformField sets spin i's field on every lane of every window to f.
func (c *packedCore) setUniformField(i int, f float64) {
	for j := range c.wins {
		win := &c.wins[j]
		row := win.fields[i*win.w : (i+1)*win.w]
		for k := range row {
			row[k] = f
		}
	}
}

// lane returns the window holding lane r and r's offset in it.
func (c *packedCore) lane(r int) (*window, int) {
	for j := range c.wins {
		if win := &c.wins[j]; r >= win.lo && r < win.lo+win.w {
			return win, r - win.lo
		}
	}
	panic(fmt.Sprintf("pbit: lane %d out of range", r))
}

// N returns the number of p-bits per lane.
func (c *packedCore) N() int { return c.n }

// Sweeps returns the packed sweep count (== every lane's sweep count).
func (c *packedCore) Sweeps() int64 { return c.sweeps }

// ReseedLane replaces lane r's randomness source.
func (c *packedCore) ReseedLane(r int, src *rng.Source) { c.srcs[r] = src }

// UpdateLaneBiases replaces lane r's bias vector and adjusts its local
// fields incrementally in O(N) — the same arithmetic, in the same order,
// as the scalar machines' UpdateBiases.
func (c *packedCore) UpdateLaneBiases(r int, h vecmat.Vec) {
	if len(h) != c.n {
		panic("pbit: UpdateLaneBiases dimension mismatch")
	}
	win, k := c.lane(r)
	for i := 0; i < c.n; i++ {
		idx := i*win.w + k
		win.fields[idx] += h[i] - win.hb[idx]
		win.hb[idx] = h[i]
	}
}

// LaneStateInto copies lane r's configuration into dst.
func (c *packedCore) LaneStateInto(dst ising.Spins, r int) {
	if len(dst) != c.n {
		panic("pbit: LaneStateInto dimension mismatch")
	}
	win, k := c.lane(r)
	for i, s := range win.states {
		dst[i] = int8(int64(s>>k&1)*2 - 1)
	}
}

// SetAllLanesState installs one configuration on every lane and
// recomputes the fields.
func (c *packedCore) SetAllLanesState(s ising.Spins) {
	if len(s) != c.n {
		panic("pbit: SetAllLanesState dimension mismatch")
	}
	for j := range c.wins {
		win := &c.wins[j]
		all := ^uint64(0) >> (Lanes - win.w)
		for i, v := range s {
			if v == 1 {
				win.states[i] = all
			} else {
				win.states[i] = 0
			}
		}
		c.recomputeWin(win)
	}
}

// Randomize draws a fresh uniform configuration per lane.
func (c *packedCore) Randomize() {
	for j := range c.wins {
		c.wins[j].randomize()
		c.recomputeWin(&c.wins[j])
	}
}

// RecomputeFields rebuilds every lane's local fields from scratch,
// replicating the scalar machine's accumulation order per lane.
func (c *packedCore) RecomputeFields() {
	for j := range c.wins {
		c.recomputeWin(&c.wins[j])
	}
}

// Sweep runs one Monte-Carlo sweep of all 64 lanes, window by window.
func (c *packedCore) Sweep(beta float64) {
	for j := range c.wins {
		c.sweepWin(&c.wins[j], beta)
	}
	c.sweeps++
}

// AnnealRun runs one annealing run on every lane from a fresh random
// start, the windows concurrently.
func (c *packedCore) AnnealRun(sched schedule.Schedule, sweeps int) {
	c.run(sched, sweeps, true)
}

// AnnealFromRun continues annealing from the current lane states.
func (c *packedCore) AnnealFromRun(sched schedule.Schedule, sweeps int) {
	c.run(sched, sweeps, false)
}

// run executes one annealing run: windows 1…k−1 on their goroutines,
// window 0 on the caller, then one join.
func (c *packedCore) run(sched schedule.Schedule, sweeps int, fresh bool) {
	c.sched, c.runSweeps, c.fresh = sched, sweeps, fresh
	if c.start == nil && len(c.wins) > 1 {
		c.startWindows()
	}
	c.wg.Add(len(c.start))
	for _, ch := range c.start {
		ch <- struct{}{}
	}
	c.runWindow(&c.wins[0])
	c.wg.Wait()
	c.sweeps += int64(sweeps)
}

// startWindows starts one goroutine per window beyond the first; each runs
// its window once per value received and exits when Close closes its
// channel.
func (c *packedCore) startWindows() {
	c.start = make([]chan struct{}, len(c.wins)-1)
	for j := range c.start {
		ch, win := make(chan struct{}), &c.wins[j+1]
		c.start[j] = ch
		go func() {
			for range ch {
				c.runWindow(win)
				c.wg.Done()
			}
		}()
	}
}

// Close stops the window goroutines the machine's concurrent runs
// started; a machine with more than one window that has annealed must be
// closed, or they stay parked for the life of the process. The machine
// remains usable: its next run starts them again.
func (c *packedCore) Close() {
	for _, ch := range c.start {
		close(ch)
	}
	c.start = nil
}

// runWindow runs the current run's start and sweeps on one window.
func (c *packedCore) runWindow(win *window) {
	if c.fresh {
		win.randomize()
		c.recomputeWin(win)
	}
	for t := 0; t < c.runSweeps; t++ {
		c.sweepWin(win, c.sched.Beta(t, c.runSweeps))
	}
}

// PackedMachine sweeps 64 replicas of one Hamiltonian over dense J rows.
// It is not safe for concurrent use. See the package comment above for the
// packing layout and the trajectory-identity contract.
type PackedMachine struct {
	packedCore
	model *ising.Model
	// fused: every |J_ij| ≤ fusedBound, so every J·δ the sweep forms is
	// exact and the pull and flush may fuse it into the add.
	fused bool
}

// fusedBound is the largest |J_ij| whose product with δ = ±2 cannot
// overflow, and so is exact: round(f + J·δ) in one rounding then equals
// round(f + round(J·δ)). Validate admits any finite J; a machine whose J
// exceeds the bound runs its pull and flush without fusing.
const fusedBound = math.MaxFloat64 / 2

// NewPacked returns a one-window dense packed machine with every lane's
// spins at −1 and per-lane sources split off src (in lane order).
// ReseedLane overrides individual lanes; the model must satisfy Validate.
func NewPacked(model *ising.Model, src *rng.Source) *PackedMachine {
	return NewPackedWindows(model, src, 1)
}

// NewPackedWindows is NewPacked with the lanes split into `windows` lane
// windows (clamped to [1, 8]) that AnnealRun sweeps concurrently;
// Close the machine when done with it. The window count changes no lane's
// trajectory.
func NewPackedWindows(model *ising.Model, src *rng.Source, windows int) *PackedMachine {
	if err := model.Validate(); err != nil {
		panic(fmt.Sprintf("pbit: invalid model: %v", err))
	}
	m := &PackedMachine{model: model, fused: true}
	m.build(model.H, src, windows, m.sweepWindow, m.recomputeWindow)
	// Every lane starts at −1 with the model's h, so all lanes' fields are
	// equal: build one lane in recomputeWindow's order and copy it. The
	// same walk checks J against fusedBound.
	for i := 0; i < m.n; i++ {
		f := model.H[i]
		for _, w := range model.J.Row(i) {
			f += w * -1
			if math.Abs(w) > fusedBound {
				m.fused = false
			}
		}
		m.setUniformField(i, f)
	}
	return m
}

// Model returns the shared Hamiltonian (read-only for the machine: biases
// live in private per-lane copies).
func (m *PackedMachine) Model() *ising.Model { return m.model }

// recomputeWindow rebuilds one window's fields from scratch, replicating
// the scalar LocalField accumulation order per lane: for each spin i,
// start from h_i and add J_ij·m_j for j = 0…n−1. That is the sweep's pull
// over the list of every spin and the ±1 blocks spinFloats writes; J·±1
// is exact for any finite J, so the pull may always fuse.
func (m *PackedMachine) recomputeWindow(win *window) {
	n, w := m.n, win.w
	win.spinFloats()
	copy(win.fields, win.hb)
	all := win.flips // idle outside a sweep
	for j := range all {
		all[j] = int32(j)
	}
	jdata := m.model.J.Data()
	i := 0
	for ; i+1 < n; i += 2 {
		pullDensePair(jdata[i*n:i*n+n], jdata[i*n+n:i*n+2*n], all, win.noise, win.fields[i*w:i*w+2*w], true)
	}
	if i < n {
		pullDense(jdata[i*n:i*n+n], all, win.noise, win.fields[i*w:i*w+w], true)
	}
}

// sweepWindow runs one Monte-Carlo sweep of one window: a fresh noise
// batch, the visits (sweepDense), and one flush after the last visit,
// which adds each spin's later flips, so the fields are exact again when
// the sweep returns.
//
//saim:hotpath
func (m *PackedMachine) sweepWindow(win *window, beta float64) {
	win.fillNoise()
	jdata := m.model.J.Data()
	nf := sweepDense(beta, jdata, win.states, win.flips, win.noise, win.fields, m.fused)
	flushDense(jdata, win.flips[:nf], win.noise, win.fields, win.w, m.fused)
}

// sweepDenseGo visits one window's n = len(states) spins in pairs (j,
// j+1), j even, and returns how many flipped: they are listed, in visit
// order, in flips[:nf]. Both blocks pull the sweep's flips before j in
// one walk. Then, per spin in visit order: turn w wantSpin decisions into
// a mask word with one packed threshold pass (saturation shortcut
// preserved per lane), XOR the flips into the state word and, if any lane
// flipped, write δ_i over i's spent noise block and list i; a flipped j
// hands its flip to j+1's block, as the last term before j+1's pass. An
// odd n leaves the last spin a one-block pull. It is the reference the
// AVX-512 sweep kernel reproduces, and the loop every other tier runs.
//
//saim:hotpath
func sweepDenseGo(beta float64, jdata []float64, states []uint64, flips []int32, noise, fields []float64, fused bool) int {
	n := len(states)
	if n == 0 {
		return 0
	}
	w := len(fields) / n
	nf := 0
	for i, s := range states {
		base := i * w
		field, nz := fields[base:base+w], noise[base:base+w]
		paired := i+1 < n && i&1 == 0
		switch {
		case paired:
			pullDensePair(jdata[i*n:i*n+n], jdata[i*n+n:i*n+2*n], flips[:nf], noise, fields[base:base+2*w], fused)
		case i&1 == 0: // an odd n's last spin; an odd i pulled with i−1
			pullDense(jdata[i*n:i*n+n], flips[:nf], noise, field, fused)
		}
		want := packedWant(beta, field, nz)
		if fl := want ^ s; fl != 0 {
			states[i] = want
			deltaBlock(fl, want, nz)
			flips[nf] = int32(i)
			nf++
			if paired {
				pullDense(jdata[i*n+n:i*n+2*n], flips[nf-1:nf], noise, fields[base+w:base+2*w], fused)
			}
		}
	}
	return nf
}

// LaneFieldConsistencyError returns the worst drift between lane r's
// incrementally-maintained fields and a from-scratch recomputation over
// its private biases (test hook).
func (m *PackedMachine) LaneFieldConsistencyError(r int) float64 {
	win, k := m.lane(r)
	worst := 0.0
	for i := 0; i < m.n; i++ {
		acc := win.hb[i*win.w+k]
		for j, w := range m.model.J.Row(i) {
			acc += w * float64(int64(win.states[j]>>k&1)*2-1)
		}
		worst = max(worst, math.Abs(win.fields[i*win.w+k]-acc))
	}
	return worst
}

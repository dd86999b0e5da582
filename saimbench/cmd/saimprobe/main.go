// Command saimprobe measures the layers beneath the benchmark's end-to-end
// numbers. It replays one workload's own inputs, derived from the seed the
// driver used, through the internal layers: packed pbit sweeps (time, lane
// flips and computed bytes moved), rng noise fills, core's per-lane
// sampling, the packed replica pool against the scalar one, the model
// codec, and for serve-cluster the job solves a node's worker runs. It
// also measures a STREAM triad for the memory roofline, and runs every
// registered backend on the internal/testkit battery, whose optima the
// brute-force oracle proves. It writes one JSON object of per-layer
// metrics:
//
//	saimprobe --workload qkp-dense --seed 1 --out probe.json
//
// With --pin it regenerates the pinned references instead (in saimbench/):
//
//	go run ./cmd/saimprobe --pin internal/work/refs.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/lagrange"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/penalty"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
	"github.com/ising-machines/saim/internal/testkit"
	"github.com/ising-machines/saim/internal/vecmat"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/saimbench/internal/work"
)

// sink keeps the probes' results live, so no measured call is dead code.
var sink float64

// maxStreamBytes caps each STREAM array. Four times a virtual machine's
// reported last-level cache (the host's, often hundreds of MiB) would
// take gigabytes; the cap and the cache are both reported.
const maxStreamBytes = 128 << 20

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "saimprobe: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, log io.Writer) error {
	fs := flag.NewFlagSet("saimprobe", flag.ContinueOnError)
	fs.SetOutput(log)
	name := fs.String("workload", "", "workload whose inputs the probes replay")
	seed := fs.Uint64("seed", 1, "the run's workload seed")
	smoke := fs.Bool("smoke", false, "tiny sizes, for the benchmark's own test")
	out := fs.String("out", "", "write the metrics to this file instead of standard output")
	pinTo := fs.String("pin", "", "regenerate the pinned references into this file instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pinTo != "" {
		return pin(*pinTo, log)
	}
	refs, err := work.LoadRefs()
	if err != nil {
		return err
	}
	p := &prober{scale: work.Full, seed: *seed, refs: refs, m: map[string]float64{}, budget: 300 * time.Millisecond}
	if *smoke {
		p.scale, p.budget = work.Smoke, 10*time.Millisecond
	}
	s, err := p.subject(*name)
	if err != nil {
		return err
	}
	if err := p.layers(s); err != nil {
		return err
	}
	if *name == work.ServeCluster {
		if err := p.jobs(); err != nil {
			return err
		}
	}
	p.stream(log)
	if err := p.battery(); err != nil {
		return err
	}
	for k, v := range p.m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			p.m[k] = 0
		}
	}
	data, err := json.MarshalIndent(p.m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// prober gathers one workload's per-layer metrics.
type prober struct {
	scale  work.Scale
	seed   uint64
	refs   *work.Refs
	m      map[string]float64
	budget time.Duration // least timed work behind each measurement
}

// subject is one instance of the workload as the probes see it: the SAIM
// problem as the saim backend compiles it, the solve settings, the public
// model of the same instance, and the wire JSON the codec probes decode.
type subject struct {
	prob     *core.Problem
	settings work.Settings
	compiled *saim.Model
	wires    [][]byte
	bodyKB   float64 // mean size of what one request carries
}

// subject rebuilds the workload's first instance: the run's first pinned
// QKP, or the first pinned job QKP.
func (p *prober) subject(name string) (*subject, error) {
	sc := p.scale
	switch name {
	case work.QKPDense:
		refs, err := sc.QKPInstances(p.refs, p.seed)
		if err != nil {
			return nil, err
		}
		return qkpSubject(refs[0], sc.QKP)
	case work.ServeCluster:
		qpool, err := p.refs.Pool("serve-qkp")
		if err != nil {
			return nil, err
		}
		cpool, err := p.refs.Pool("serve-maxcut")
		if err != nil {
			return nil, err
		}
		s, err := qkpSubject(qpool[0], sc.QKPJob)
		if err != nil {
			return nil, err
		}
		// The codec probes decode the models of the fixed-rate phase's
		// first request bodies.
		s.wires, s.bodyKB = nil, 0
		const bodies = 32
		for i := 0; i < bodies; i++ {
			job := work.ServeJob(p.seed, 0, i, len(qpool), len(cpool))
			ref := qpool[job.Index]
			if job.Kind == "maxcut" {
				ref = cpool[job.Index]
			}
			m, err := ref.Model()
			if err != nil {
				return nil, err
			}
			wire, err := m.MarshalJSON()
			if err != nil {
				return nil, err
			}
			s.wires = append(s.wires, wire)
			s.bodyKB += float64(len(work.Body(wire, sc.JobSettings(job.Kind), job.Seed, nil))) / 1024 / bodies
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func qkpSubject(r work.Ref, set work.Settings) (*subject, error) {
	kp, err := r.Knapsack()
	if err != nil {
		return nil, err
	}
	return newSubject(qkp.Generate(r.N, r.Density, 0, r.Seed).ToProblem(constraint.Binary), set, kp.Model)
}

func newSubject(prob *core.Problem, set work.Settings, m *model.Model) (*subject, error) {
	compiled, err := m.Compile()
	if err != nil {
		return nil, err
	}
	wire, err := m.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return &subject{prob: prob, settings: set, compiled: compiled, wires: [][]byte{wire}, bodyKB: float64(len(wire)) / 1024}, nil
}

// energy compiles the subject's Ising model the way core does: the penalty
// energy at the solve's P (explicit, or the α·d·N heuristic), then its
// spin image.
func (s *subject) energy() (*ising.QUBO, *ising.Model) {
	pw := s.settings.Penalty
	if pw == 0 {
		pw = core.HeuristicPenalty(s.prob, orDefault(s.settings.Alpha, 2))
	}
	e := penalty.Build(s.prob.Objective, s.prob.Ext, pw)
	return e, e.ToIsing()
}

// newKernel builds the packed kernel the engine picks for the model.
func newKernel(im *ising.Model, seed uint64) pbit.PackedKernel {
	if core.MachineAuto.Resolve(im) == core.MachineSparse {
		return pbit.NewPackedSparse(im, rng.New(seed))
	}
	return pbit.NewPacked(im, rng.New(seed))
}

// timed runs f once to warm up, then until it has run three times and for
// at least the probe budget, and returns the mean time per call.
func (p *prober) timed(f func()) time.Duration {
	f()
	var total time.Duration
	n := 0
	for n < 3 || total < p.budget {
		t0 := time.Now()
		f()
		total += time.Since(t0)
		n++
	}
	return total / time.Duration(n)
}

// layers runs the kernel, noise, sampling, replica-pool and codec probes.
func (p *prober) layers(s *subject) error {
	energy, im := s.energy()
	set := s.settings
	sched := schedule.Linear{Start: 0, End: orDefault(set.BetaMax, 10)}
	sweepUS, sampleUS := p.algorithm1(s, energy, im, sched)
	flips, moved := replayFlips(im, p.seed, sched, set.Sweeps)
	p.m["pbit.sweep_us"] = sweepUS
	p.m["pbit.lane_flips_per_sweep"] = flips
	p.m["pbit.bytes_per_sweep"] = moved
	p.m["pbit.achieved_gbps"] = moved / (sweepUS * 1e3)
	p.m["rng.fill_ns_per_draw"] = p.fillTime(im.N())
	p.m["core.lane_sample_us"] = sampleUS
	speedup, err := p.packedSpeedup(s)
	if err != nil {
		return err
	}
	p.m["core.packed_speedup"] = speedup
	return p.codec(s)
}

// algorithm1 replays the solve's own loop on the packed kernel the engine
// picks — per iteration one annealing run at the solve's β schedule, then
// per lane the CPU-side work: residuals, feasibility, cost, energy, the λ
// step, and the bias reprogramming (lagrange.BiasDelta) for the next run —
// and times the two apart. The biases follow each lane's λ as in a solve,
// so the sweeps see the fields a solve's sweeps see. It returns
// pbit.sweep_us and core.lane_sample_us.
func (p *prober) algorithm1(s *subject, energy *ising.QUBO, im *ising.Model, sched schedule.Schedule) (sweepUS, sampleUS float64) {
	ext, set := s.prob.Ext, s.settings
	pk := newKernel(im, p.seed)
	eta := orDefault(set.Eta, 20)
	step := lagrange.ConstantStep{Eta0: eta}
	lams := make([]*lagrange.Multipliers, pbit.Lanes)
	for r := range lams {
		lams[r] = lagrange.New(ext.M(), eta)
	}
	baseH := im.H.Clone()
	spins, x := ising.NewSpins(ext.NTotal), make(ising.Bits, ext.NTotal)
	g, delta, h := vecmat.NewVec(ext.M()), vecmat.NewVec(ext.NTotal), vecmat.NewVec(ext.NTotal)
	var anneal, sample time.Duration
	for k := 0; k < set.Iterations; k++ {
		t0 := time.Now()
		pk.Randomize()
		for t := 0; t < set.Sweeps; t++ {
			pk.Sweep(sched.Beta(t, set.Sweeps))
		}
		t1 := time.Now()
		for r, lam := range lams {
			pk.LaneStateInto(spins, r)
			spins.BitsInto(x)
			ext.ResidualsInto(g, x)
			if ext.OrigFeasible(x, 1e-9) {
				sink++
			}
			sink += s.prob.Cost(x[:ext.NOrig]) + energy.Energy(x) + lam.Values.Dot(g)
			lam.UpdateScheduled(g, step)
			lagrange.BiasDelta(delta, ext, lam)
			vecmat.SubInto(h, baseH, delta)
			pk.UpdateLaneBiases(r, h)
		}
		anneal += t1.Sub(t0)
		sample += time.Since(t1)
	}
	n := float64(set.Iterations)
	return micros(anneal) / n / float64(set.Sweeps), micros(sample) / n / pbit.Lanes
}

// replayFlips replays one annealing run with the same seed (the kernels
// are deterministic) and returns, per sweep, the lane flips and the bytes
// the sweep moves by the kernel's own loop structure: per spin its 64
// fields and noise values read and its noise written, and per flipping
// spin its coupling row plus the field lanes the flip walks — whole 4-lane
// groups for a multi-lane flip, one lane for a single one — read and
// written. The bytes are computed, not measured: caches are not modelled.
func replayFlips(im *ising.Model, seed uint64, sched schedule.Schedule, sweeps int) (flips, moved float64) {
	n := im.N()
	sparse := core.MachineAuto.Resolve(im) == core.MachineSparse
	rowLen, rowBytes := make([]float64, n), make([]float64, n)
	for i := range rowLen {
		if !sparse {
			rowLen[i], rowBytes[i] = float64(n), 8*float64(n)
			continue
		}
		nz := 0
		for j, w := range im.J.Row(i) {
			if w != 0 && j != i {
				nz++
			}
		}
		rowLen[i], rowBytes[i] = float64(nz), 12*float64(nz) // int32 column + float64 weight
	}
	const lanes = pbit.Lanes
	pk := newKernel(im, seed)
	prev, cur := make([]ising.Spins, lanes), make([]ising.Spins, lanes)
	for r := range prev {
		prev[r], cur[r] = ising.NewSpins(n), ising.NewSpins(n)
	}
	pk.Randomize()
	for r := range prev {
		pk.LaneStateInto(prev[r], r)
	}
	for t := 0; t < sweeps; t++ {
		pk.Sweep(sched.Beta(t, sweeps))
		moved += float64(n * lanes * 8 * 3)
		for r := range cur {
			pk.LaneStateInto(cur[r], r)
		}
		for i := 0; i < n; i++ {
			var fl uint64
			for r := range cur {
				if cur[r][i] != prev[r][i] {
					fl |= 1 << uint(r)
				}
			}
			if fl == 0 {
				continue
			}
			c := bits.OnesCount64(fl)
			touched := 1
			if c > 1 {
				touched = 4 * groups(fl)
			}
			flips += float64(c)
			moved += rowBytes[i] + 16*float64(touched)*rowLen[i]
		}
		prev, cur = cur, prev
	}
	return flips / float64(sweeps), moved / float64(sweeps)
}

// groups counts the 4-lane groups a flip mask touches.
func groups(fl uint64) int {
	g := 0
	for ; fl != 0; fl >>= 4 {
		if fl&0xf != 0 {
			g++
		}
	}
	return g
}

// fillTime is rng.fill_ns_per_draw: FillSym8Strided filling 64
// lane-blocked noise streams of the workload's spin count, as a packed
// sweep does, per draw.
func (p *prober) fillTime(n int) float64 {
	src := rng.New(p.seed)
	var srcs [pbit.Lanes]*rng.Source
	for r := range srcs {
		srcs[r] = src.Split()
	}
	dst := make([]float64, n*pbit.Lanes)
	fill := p.timed(func() {
		for g := 0; g < pbit.Lanes; g += 8 {
			oct := [8]*rng.Source{srcs[g], srcs[g+1], srcs[g+2], srcs[g+3], srcs[g+4], srcs[g+5], srcs[g+6], srcs[g+7]}
			rng.FillSym8Strided(&oct, dst[g:], n, pbit.Lanes)
		}
	})
	sink += dst[0]
	return float64(fill.Nanoseconds()) / float64(n*pbit.Lanes)
}

// packedSpeedup is core.packed_speedup: the replica pool's throughput per
// core with 64 packed lanes over one scalar machine per replica, both on
// one core and a short budget. Every lane reproduces its scalar replica,
// so the work is identical and the ratio of times is the ratio of
// throughputs.
func (p *prober) packedSpeedup(s *subject) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	set := s.settings
	set.Iterations, set.Replicas, set.Sweeps = 2, pbit.Lanes, min(set.Sweeps, 100)
	solve := func(mode saim.PackedMode) (float64, error) {
		var ts []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := saim.SolveModel(context.Background(), "saim", s.compiled,
				append(set.Options(p.seed), saim.WithPackedReplicas(mode))...); err != nil {
				return 0, err
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		return work.Median(ts), nil
	}
	packed, err := solve(saim.PackedOn)
	if err != nil {
		return 0, err
	}
	scalar, err := solve(saim.PackedOff)
	if err != nil {
		return 0, err
	}
	return scalar / packed, nil
}

// codec times the model wire codec on the workload's own models: decoding
// (model.UnmarshalJSON) and the dedup fingerprint.
func (p *prober) codec(s *subject) error {
	var dec, fp []float64
	for _, w := range s.wires {
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			m := model.New()
			if err := json.Unmarshal(w, m); err != nil {
				return fmt.Errorf("decode: %w", err)
			}
			t1 := time.Now()
			if _, err := m.Fingerprint(); err != nil {
				return fmt.Errorf("fingerprint: %w", err)
			}
			dec = append(dec, micros(t1.Sub(t0)))
			fp = append(fp, micros(time.Since(t1)))
		}
	}
	p.m["model.decode_us"] = work.Median(dec)
	p.m["model.fingerprint_us"] = work.Median(fp)
	p.m["model.body_kb"] = s.bodyKB
	return nil
}

// jobs solves the fixed-rate phase's first jobs in process, as a node's
// worker does once it has decoded them, and follows the QKP solves'
// iterations through WithProgress (one call per iteration on the scalar
// engine).
func (p *prober) jobs() error {
	sc := p.scale
	qpool, err := p.refs.Pool("serve-qkp")
	if err != nil {
		return err
	}
	cpool, err := p.refs.Pool("serve-maxcut")
	if err != nil {
		return err
	}
	const perKind = 16
	solve := map[string][]float64{}
	var build, iter, compile, feasible []float64
	for i := 0; len(solve["qkp"]) < perKind || len(solve["maxcut"]) < perKind; i++ {
		job := work.ServeJob(p.seed, 0, i, len(qpool), len(cpool))
		if len(solve[job.Kind]) >= perKind {
			continue
		}
		ref := qpool[job.Index]
		if job.Kind == "maxcut" {
			ref = cpool[job.Index]
		}
		t0 := time.Now()
		m, err := ref.Model()
		if err != nil {
			return err
		}
		compiled, err := m.Compile()
		if err != nil {
			return err
		}
		build = append(build, time.Since(t0).Seconds())
		var marks []time.Time
		opts := append(sc.JobSettings(job.Kind).Options(job.Seed),
			saim.WithProgress(func(saim.Progress) { marks = append(marks, time.Now()) }))
		t1 := time.Now()
		res, err := saim.SolveModel(context.Background(), "saim", compiled, opts...)
		if err != nil {
			return err
		}
		solve[job.Kind] = append(solve[job.Kind], millis(time.Since(t1)))
		if job.Kind == "qkp" && len(marks) > 1 {
			var d []float64
			for k := 1; k < len(marks); k++ {
				d = append(d, millis(marks[k].Sub(marks[k-1])))
			}
			iter = append(iter, d...)
			compile = append(compile, millis(marks[0].Sub(t1))-work.Median(d))
			feasible = append(feasible, res.FeasibleRatio)
		}
	}
	p.m["saim.job_solve_ms.qkp"] = work.Median(solve["qkp"])
	p.m["saim.job_solve_ms.maxcut"] = work.Median(solve["maxcut"])
	p.m["model.build_s"] = work.Median(build)
	p.m["core.iteration_ms"] = work.Median(iter)
	p.m["saim.compile_ms"] = work.Median(compile)
	p.m["core.feasible_pct"] = work.Mean(feasible)
	return nil
}

// stream measures sustainable memory bandwidth with a single-threaded
// STREAM triad, a = b + 3c at 24 bytes per element, over three arrays of
// four times the last-level cache (capped at maxStreamBytes), and reports
// both sizes.
func (p *prober) stream(log io.Writer) {
	llc := lastLevelCache()
	size := min(4*llc, maxStreamBytes)
	if p.scale.Smoke {
		size = 4 << 20
	}
	p.m["mem.stream_gbps"] = triadGBps(size / 8)
	p.m["mem.llc_mib"] = float64(llc) / (1 << 20)
	p.m["mem.array_mib"] = float64(size) / (1 << 20)
	fmt.Fprintf(log, "saimprobe: STREAM triad over three %d MiB arrays; last-level cache %d MiB\n", size>>20, llc>>20)
	debug.FreeOSMemory()
}

func triadGBps(n int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		triad(a, b, c)
		ts = append(ts, time.Since(t0).Seconds())
	}
	sink += a[n-1]
	return 24 * float64(n) / work.Median(ts) / 1e9
}

func triad(a, b, c []float64) {
	b, c = b[:len(a)], c[:len(a)]
	for i := range a {
		a[i] = b[i] + 3*c[i]
	}
}

// lastLevelCache reads the largest cache of cpu0 from sysfs, or assumes
// 32 MiB where sysfs does not say.
func lastLevelCache() int {
	best := 0
	for idx := 0; idx < 8; idx++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			continue
		}
		s, mult := strings.TrimSpace(string(data)), 1
		switch {
		case strings.HasSuffix(s, "K"):
			s, mult = strings.TrimSuffix(s, "K"), 1<<10
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1<<20
		}
		if v, err := strconv.Atoi(s); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		best = 32 << 20
	}
	return best
}

// battery runs every registered backend on the internal/testkit instances
// of the seed that it accepts, at one fixed budget, and records each
// module's mean gap to the optimum the brute-force oracle proves.
func (p *prober) battery() error {
	gaps := map[string][]float64{}
	for _, inst := range testkit.Suite(p.seed) {
		compiled, err := inst.Model.Compile()
		if err != nil {
			return fmt.Errorf("battery %s: %w", inst.Name, err)
		}
		opt, _, ok := testkit.BruteForce(compiled)
		if !ok {
			continue
		}
		for _, name := range saim.Solvers() {
			mod := batteryModule(name, compiled.Form())
			if mod == "" {
				continue
			}
			s, err := saim.Get(name)
			if err != nil {
				return err
			}
			if !s.Accepts(compiled.Form()) {
				continue
			}
			res, err := s.Solve(context.Background(), compiled, batteryBudget(name, p.seed)...)
			if err != nil {
				if strings.Contains(err.Error(), "knapsack") {
					continue // ga, greedy and exact take integer knapsack forms only
				}
				return fmt.Errorf("battery %s / %s: %w", inst.Name, name, err)
			}
			gap := 100.0
			if !res.Infeasible() {
				cost, feasible, err := compiled.Evaluate(res.Assignment)
				if err != nil || !feasible || math.Abs(cost-res.Cost) > 1e-6*(1+math.Abs(cost)) {
					return fmt.Errorf("battery %s / %s: reported cost %v re-evaluates to %v (feasible %v, %v)",
						inst.Name, name, res.Cost, cost, feasible, err)
				}
				if cost < opt-1e-6 {
					return fmt.Errorf("battery %s / %s: cost %v beats the proven optimum %v", inst.Name, name, cost, opt)
				}
				gap = math.Min(100, 100*(cost-opt)/math.Max(math.Abs(opt), 1))
			}
			gaps[mod] = append(gaps[mod], gap)
		}
	}
	for _, mod := range []string{"core", "anneal", "pt", "ga", "greedy", "decompose", "exact"} {
		p.m[mod+".battery_gap_pct"] = work.Mean(gaps[mod])
	}
	return nil
}

// batteryModule names the module whose quality a backend's battery solves
// track; "" skips the backend. saim runs constrained models on core and
// unconstrained ones through internal/anneal; its high-order path
// (internal/hoim) and the race meta-solver are not tracked.
func batteryModule(backend string, f saim.Form) string {
	switch backend {
	case "saim":
		switch f {
		case saim.FormConstrained:
			return "core"
		case saim.FormUnconstrained:
			return "anneal"
		}
	case "penalty":
		return "anneal"
	case "pt", "ga", "greedy", "exact":
		return backend
	case "decomp":
		return "decompose"
	}
	return ""
}

// batteryBudget is the battery's fixed budget, the cross-backend oracle
// test's.
func batteryBudget(name string, seed uint64) []saim.Option {
	opts := []saim.Option{saim.WithSeed(seed), saim.WithIterations(80), saim.WithSweepsPerRun(150)}
	switch name {
	case "pt":
		opts = append(opts, saim.WithReplicas(8))
	case "decomp":
		opts = append(opts, saim.WithSubproblemSize(6), saim.WithIterations(20))
	}
	return opts
}

func orDefault(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

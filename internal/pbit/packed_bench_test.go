package pbit

import (
	"testing"

	"github.com/ising-machines/saim/internal/cpufeat"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
)

// The packed benchmarks measure aggregate 64-replica throughput: each
// BenchmarkPackedAnneal* op advances 64 replicas through one full
// BenchmarkAnnealRun-class annealing run (1000 sweeps, linear β 0→10),
// and each *ScalarPool64 baseline does the same work on 64 scalar
// machines — the replica pool's cost before multi-spin coding. Speedup =
// baseline ns/op ÷ packed ns/op.

func BenchmarkPackedAnnealDense(b *testing.B) {
	src := rng.New(7)
	model := randomModel(src, 100)
	m := NewPacked(model, rng.New(9))
	sched := schedule.Linear{Start: 0, End: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AnnealRun(sched, 1000)
	}
}

func BenchmarkPackedAnnealDenseScalarPool64(b *testing.B) {
	src := rng.New(7)
	model := randomModel(src, 100)
	base := rng.New(9)
	ms := make([]*Machine, Lanes)
	for r := range ms {
		ms[r] = New(model, base.Split())
	}
	sched := schedule.Linear{Start: 0, End: 10}
	buf := make([]int8, model.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			m.AnnealInto(buf, sched, 1000)
		}
	}
}

func BenchmarkPackedAnnealSparse(b *testing.B) {
	src := rng.New(7)
	model := sparseModel(src, 300, 0.05)
	m := NewPackedSparse(model, rng.New(9))
	sched := schedule.Linear{Start: 0, End: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AnnealRun(sched, 1000)
	}
}

func BenchmarkPackedAnnealSparseScalarPool64(b *testing.B) {
	src := rng.New(7)
	model := sparseModel(src, 300, 0.05)
	base := rng.New(9)
	ms := make([]*SparseMachine, Lanes)
	for r := range ms {
		ms[r] = NewSparse(model, base.Split())
	}
	sched := schedule.Linear{Start: 0, End: 10}
	buf := make([]int8, model.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			m.AnnealInto(buf, sched, 1000)
		}
	}
}

// Sweep-only microbenchmarks at a fixed mid-anneal temperature mix,
// isolating the kernel from Randomize/RecomputeFields.

// BenchmarkPackedSweepDense times one packed Sweep (every window in turn,
// on the caller). n=100 is the historical one-window layout; windows=1 and
// windows=2 at n = 160 are the layouts qkp-dense runs (one window per core
// on two cores sweeps 32 lanes each). tier=avx2 repeats those two with the
// AVX-512 tier cleared, timing what AVX2-only hardware runs.
func BenchmarkPackedSweepDense(b *testing.B) {
	sweep := func(n, windows int) func(b *testing.B) {
		return func(b *testing.B) {
			model := randomModel(rng.New(7), n)
			m := NewPackedWindows(model, rng.New(9), windows)
			m.Randomize()
			sched := schedule.Linear{Start: 0.1, End: 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Sweep(sched.Beta(i%200, 200))
			}
		}
	}
	b.Run("n=100", sweep(100, 1))
	b.Run("windows=1", sweep(160, 1))
	b.Run("windows=2", sweep(160, 2))
	b.Run("tier=avx2", func(b *testing.B) {
		if !hasAVX2 {
			b.Skip("this CPU lacks the avx2 tier")
		}
		cpufeat.HasAVX512 = false
		defer func() { cpufeat.HasAVX512 = hasAVX512 }()
		b.Run("windows=1", sweep(160, 1))
		b.Run("windows=2", sweep(160, 2))
	})
}

func BenchmarkPackedSweepDenseScalarPool64(b *testing.B) {
	src := rng.New(7)
	model := randomModel(src, 100)
	base := rng.New(9)
	ms := make([]*Machine, Lanes)
	for r := range ms {
		ms[r] = New(model, base.Split())
		ms[r].Randomize()
	}
	sched := schedule.Linear{Start: 0.1, End: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beta := sched.Beta(i%200, 200)
		for _, m := range ms {
			m.Sweep(beta)
		}
	}
}

package pbit

import (
	"fmt"
	"slices"
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

// BenchmarkPackedPullFlush times the dense pull and flush kernels alone,
// under the widest tier the CPU has, at qkp-dense's layout: n = 160 spins
// with 28 of them listed as flipped, one window of w = 32 or 64 lanes. One
// op is a sweep's kernel calls — each spin pair's pull of the flips before
// it, the hand-off of a listed j to j+1, one flush — in which each row
// takes every listed flip but its own; ns/row-entry is the time per such
// term.
func BenchmarkPackedPullFlush(b *testing.B) {
	const n, listed = 160, 28
	for _, w := range []int{32, 64} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			src := rng.New(11)
			jdata := randomModel(src, n).J.Data()
			deltas := randomDeltas(src, n*w)
			fields := randomFloats(src, n*w, 1)
			flips := make([]int32, listed)
			for k, i := range src.Perm(n)[:listed] {
				flips[k] = int32(i)
			}
			slices.Sort(flips)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				nf := 0
				for j := 0; j+1 < n; j += 2 {
					row1 := jdata[j*n+n : j*n+2*n]
					pullDensePair(jdata[j*n:j*n+n], row1, flips[:nf], deltas, fields[j*w:j*w+2*w], true)
					if nf < listed && int(flips[nf]) == j {
						nf++
						pullDense(row1, flips[nf-1:nf], deltas, fields[j*w+w:j*w+2*w], true)
					}
					if nf < listed && int(flips[nf]) == j+1 {
						nf++
					}
				}
				flushDense(jdata, flips, deltas, fields, w, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*listed-listed), "ns/row-entry")
		})
	}
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

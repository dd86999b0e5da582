package saim

import (
	"context"
	"testing"
)

// buildKnapModel builds a small constrained model through the public
// Builder, with a quadratic objective so the coupling structure is
// non-trivial for both kernels.
func buildKnapModel(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder(6)
	values := []float64{6, 5, 8, 9, 6, 7}
	weights := []float64{2, 3, 6, 7, 5, 9}
	for i, v := range values {
		b.Term(-v, i)
	}
	b.Term(-3, 0, 2).Term(-2, 1, 4).Term(-4, 3, 5)
	b.ConstrainLE(weights, 15)
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// WithMachine must never change results — only which kernel runs. All
// three kinds share one rng stream and update rule, so the solve outcome
// is bit-identical across them.
func TestWithMachineKernelsAgree(t *testing.T) {
	m := buildKnapModel(t)
	run := func(k MachineKind) *Result {
		res, err := SolveModel(context.Background(), "saim", m,
			WithIterations(30), WithSweepsPerRun(50), WithEta(0.5), WithSeed(11),
			WithMachine(k))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	auto, dense, sparse := run(MachineAuto), run(MachineDense), run(MachineSparse)
	if dense.Cost != sparse.Cost || dense.FeasibleRatio != sparse.FeasibleRatio {
		t.Fatalf("kernels disagree: dense %v/%v vs sparse %v/%v",
			dense.Cost, dense.FeasibleRatio, sparse.Cost, sparse.FeasibleRatio)
	}
	if auto.Cost != dense.Cost {
		t.Fatalf("auto kernel diverged: %v vs %v", auto.Cost, dense.Cost)
	}
	for i, v := range dense.Assignment {
		if sparse.Assignment[i] != v {
			t.Fatalf("assignments diverge at %d", i)
		}
	}
}

// The penalty backend must honor WithMachine too (it anneals the same
// machines), and forcing kernels must agree there as well.
func TestWithMachinePenaltyBackend(t *testing.T) {
	m := buildKnapModel(t)
	run := func(k MachineKind) *Result {
		res, err := SolveModel(context.Background(), "penalty", m,
			WithIterations(20), WithSweepsPerRun(50), WithSeed(3), WithMachine(k))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if d, s := run(MachineDense), run(MachineSparse); d.Cost != s.Cost {
		t.Fatalf("penalty backend kernels disagree: %v vs %v", d.Cost, s.Cost)
	}
}

// Replicated saim solves now stream aggregated progress instead of
// dropping callbacks for replicas beyond the first.
func TestReplicatedSolveStreamsProgress(t *testing.T) {
	m := buildKnapModel(t)
	calls := 0
	var lastSamples int
	res, err := SolveModel(context.Background(), "saim", m,
		WithIterations(8), WithSweepsPerRun(20), WithEta(0.5), WithSeed(5),
		WithReplicas(3),
		WithProgress(func(p Progress) {
			calls++
			if p.Iteration+1 > lastSamples {
				lastSamples = p.Iteration + 1
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3*8 {
		t.Fatalf("Iterations = %d, want 24", res.Iterations)
	}
	if calls != 3*8 {
		t.Fatalf("progress fired %d times, want one per replica iteration (24)", calls)
	}
	if lastSamples != 24 {
		t.Fatalf("aggregate iteration high-water %d, want 24", lastSamples)
	}
}

// Naming the default packed mode configures the same solve as naming
// none, so the two option lists must fingerprint alike.
func TestPackedOnFingerprintsLikeTheDefault(t *testing.T) {
	if OptionsFingerprint(WithSeed(3)) != OptionsFingerprint(WithSeed(3), WithPackedReplicas(PackedOn)) {
		t.Fatal("WithPackedReplicas(PackedOn) changed the options fingerprint")
	}
}

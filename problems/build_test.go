package problems_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/problems"
)

// allocBytes returns the bytes f allocates, read from the process-wide
// counter (so callers must not run in parallel with other tests).
func allocBytes(t *testing.T, f func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCatalogBuildIsLinear catches a quadratic fold in the catalog's
// model construction. Folding T terms with Expr.Add copies the
// accumulated terms at every step — about 24·T²/2 bytes, 24 GB for the
// 44,850-pair QKP below — while building with model.Sum allocates O(T).
func TestCatalogBuildIsLinear(t *testing.T) {
	const ceiling = 128 << 20

	// The paper's largest QKP cell: N = 300 at 100% pair density.
	spec := qkpSpec(qkp.Generate(300, 1.0, 0, 1))
	got := allocBytes(t, func() error {
		p, err := problems.Knapsack(spec)
		if err != nil {
			return err
		}
		_, err = p.Model.Compile()
		return err
	})
	if got >= ceiling {
		t.Errorf("Knapsack + Compile at N = 300, d = 1.0 allocated %d MiB, ceiling %d MiB", got>>20, ceiling>>20)
	}

	// Every pair of 200 workers certifies: a 19,900-term constraint.
	shift := problems.ShiftSpec{Rates: make([]float64, 200), CrewSize: 10, RequiredPairs: 1}
	for i := range shift.Rates {
		shift.Rates[i] = float64(40 + i%17)
		for j := i + 1; j < len(shift.Rates); j++ {
			shift.CertifiedPairs = append(shift.CertifiedPairs, [2]int{i, j})
		}
	}
	got = allocBytes(t, func() error {
		_, err := problems.ShiftScheduling(shift)
		return err
	})
	if got >= ceiling {
		t.Errorf("ShiftScheduling over all pairs of 200 workers allocated %d MiB, ceiling %d MiB", got>>20, ceiling>>20)
	}
}

// benchQKP times op on qkp-dense's instance size (N = 150, d = 0.5) and
// on the paper's largest QKP cell (N = 300, d = 1.0), handing it the spec
// and a model already built from it.
func benchQKP(b *testing.B, op func(spec problems.KnapsackSpec, p *problems.KnapsackProblem) error) {
	for _, c := range []struct {
		n int
		d float64
	}{{150, 0.5}, {300, 1.0}} {
		spec := qkpSpec(qkp.Generate(c.n, c.d, 0, 1))
		p, err := problems.Knapsack(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/d=%.1f", c.n, c.d), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := op(spec, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKnapsackBuild(b *testing.B) {
	benchQKP(b, func(spec problems.KnapsackSpec, _ *problems.KnapsackProblem) error {
		_, err := problems.Knapsack(spec)
		return err
	})
}

func BenchmarkKnapsackCompile(b *testing.B) {
	benchQKP(b, func(_ problems.KnapsackSpec, p *problems.KnapsackProblem) error {
		_, err := p.Model.Compile()
		return err
	})
}

func BenchmarkKnapsackFingerprint(b *testing.B) {
	benchQKP(b, func(_ problems.KnapsackSpec, p *problems.KnapsackProblem) error {
		_, err := p.Model.Fingerprint()
		return err
	})
}

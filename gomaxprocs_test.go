package saim

import (
	"reflect"
	"runtime"
	"testing"
)

// Same-seed replicated solves must not depend on GOMAXPROCS. The replica
// pool's worker count and each packed group's lane-window count both
// follow it, and neither may change a result: 64 replicas are one packed
// group (1, 2, 4 or 8 lane windows here), 130 are two groups plus two
// scalar replicas spread over up to 8 workers.
func TestReplicatedSolveIndependentOfGOMAXPROCS(t *testing.T) {
	const n = 12
	b := NewBuilder(n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		b.Linear(i, -float64(3+(i*7)%11))
		for j := i + 1; j < n; j++ {
			if (i*5+j*3)%4 == 0 {
				b.Quadratic(i, j, -float64(1+(i+j)%5))
			}
		}
		weights[i] = float64(2 + (i*3)%7)
	}
	b.ConstrainLE(weights, 20)
	m := mustModel(t, b)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, replicas := range []int{64, 130} {
		var want *Result
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got := mustSolve(t, "saim", m, WithIterations(6), WithSweepsPerRun(40),
				WithEta(0.5), WithSeed(11), WithReplicas(replicas))
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d replicas: GOMAXPROCS %d result %+v differs from GOMAXPROCS 1 result %+v",
					replicas, procs, got, want)
			}
		}
	}
}

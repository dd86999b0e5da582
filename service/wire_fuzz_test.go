package service

import (
	"encoding/json"
	"testing"
	"time"

	saim "github.com/ising-machines/saim"
)

// FuzzWireOptions feeds arbitrary bytes through a submission's option
// decoding — json.Unmarshal into SolveOptions, then Options — which must
// never panic. Options it accepts carry a time limit of exactly
// TimeLimitMS milliseconds, never negative and never wrapped around, and
// fingerprinting them for the dedup key must not panic either.
func FuzzWireOptions(f *testing.F) {
	for _, seed := range []string{
		`{"time_limit_ms":18446744073710}`,
		`{"time_limit_ms":9223372036855}`,
		`{"time_limit_ms":9223372036854}`,
		`{"time_limit_ms":-1}`,
		`{"machine":"quantum"}`,
		`{"initial":[1,0,1,1]}`,
		`{"racers":["saim","greedy"]}`,
		`{"tabu_tenure":3,"subproblem_size":64,"inner_solver":"pt","rounds":2}`,
		`{"target_cost":-3.5,"patience":4}`,
		`{"alpha":2,"eta":80,"iterations":60,"sweeps_per_run":100,"beta_max":10,"seed":7}`,
		`{"machine":"sparse","replicas":64,"population":50,"node_limit":99,"time_limit_ms":1500}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o SolveOptions
		if json.Unmarshal(data, &o) != nil {
			return
		}
		opts, limit, err := o.Options()
		if err != nil {
			return
		}
		if limit < 0 || limit%time.Millisecond != 0 || int64(limit/time.Millisecond) != o.TimeLimitMS {
			t.Fatalf("time_limit_ms %d lowered to %v", o.TimeLimitMS, limit)
		}
		_ = saim.OptionsFingerprint(opts...)
	})
}

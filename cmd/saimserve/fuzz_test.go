package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/faultkit"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/problems"
	"github.com/ising-machines/saim/service"
)

// instantSolver is a backend that returns at once, so a fuzzed submission
// exercises the HTTP, codec and manager layers and never waits on a solve.
type instantSolver struct{}

func (instantSolver) Name() string           { return "fuzz-instant" }
func (instantSolver) Accepts(saim.Form) bool { return true }
func (instantSolver) Solve(context.Context, *saim.Model, ...saim.Option) (*saim.Result, error) {
	return &saim.Result{Solver: "fuzz-instant", Cost: math.Inf(1)}, nil
}

var registerInstant = sync.OnceValue(func() error { return saim.Register(instantSolver{}) })

// submitSeeds are FuzzSubmitHandler's starting bodies: a serve-cluster QKP
// job (N = 40, d = 0.5, the benchmark's job options) retargeted at the
// instant solver, the same body truncated, malformed JSON, null and string
// models, unknown keys, deep nesting, a model declaring more than
// model.MaxWireVariables variables, and time limits that overflow.
func submitSeeds(tb testing.TB) []string {
	inst := qkp.Generate(40, 0.5, 0, 1)
	values := make([]float64, inst.N)
	weights := make([]float64, inst.N)
	pairs := make([][]float64, inst.N)
	for i := range values {
		values[i] = float64(inst.H[i])
		weights[i] = float64(inst.A[i])
		pairs[i] = make([]float64, inst.N)
		for j, w := range inst.W[i] {
			pairs[i][j] = float64(w)
		}
	}
	p, err := problems.Knapsack(problems.KnapsackSpec{
		Values: values, PairValues: pairs, Weights: [][]float64{weights},
		Capacities: []float64{float64(inst.B)}, Density: inst.Density,
	})
	if err != nil {
		tb.Fatal(err)
	}
	wire, err := p.Model.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	const opts = `{"alpha":2,"eta":80,"iterations":60,"sweeps_per_run":100,"beta_max":10,"seed":11}`
	qkpBody := `{"solver":"fuzz-instant","options":` + opts + `,"model":` + string(wire) + `}`
	small := `{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":0,"w":1}],"quad":[{"i":0,"j":1,"w":-2}]}}`
	deep := strings.Repeat("[", 12000) + strings.Repeat("]", 12000)
	return []string{
		qkpBody,
		qkpBody[:len(qkpBody)/2],
		`{"solver":"fuzz-instant","no_dedup":true,"model":` + small + `}`,
		`{"solver":"fuzz-instant","model":` + small,
		`{"solver":"fuzz-instant","model":{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":0,"w":}]}}}`,
		`{"solver":"fuzz-instant","model":null}`,
		`{"solver":"fuzz-instant","model":"knapsack"}`,
		`null`,
		`{"solver":"fuzz-instant","extra":{"a":[1,{"b":null}]},"options":{"bogus":true},"model":` + small + `}`,
		`{"solver":"fuzz-instant","model":` + deep + `}`,
		`{"solver":"fuzz-instant","options":{"racers":` + deep + `},"model":` + small + `}`,
		fmt.Sprintf(`{"solver":"fuzz-instant","model":{"families":[{"name":"x","n":%d}]}}`, model.MaxWireVariables+1),
		`{"solver":"fuzz-instant","options":{"time_limit_ms":18446744073710},"model":` + small + `}`,
		`{"solver":"fuzz-instant","options":{"time_limit_ms":9223372036855},"model":` + small + `}`,
		`{"solver":"no-such-solver","model":` + small + `}`,
	}
}

// FuzzSubmitHandler posts arbitrary bodies to POST /v1/jobs on a
// single-node in-memory server. Every body must be accepted or refused as
// the client's error: the handler never panics and never answers 5xx.
// Jobs name a solver that returns at once, no job is solved, and the
// queue is deep enough that backpressure (503) cannot occur.
func FuzzSubmitHandler(f *testing.F) {
	if err := registerInstant(); err != nil {
		f.Fatal(err)
	}
	for _, body := range submitSeeds(f) {
		f.Add([]byte(body))
	}
	// Model.Solve compiles a model densely before any solver runs, and a
	// fuzzed model may declare up to model.MaxWireVariables variables, so
	// every accepted job fails at the solve failpoint instead.
	faultkit.Set("service.solve", func() error { return errors.New("fuzz: jobs are not solved") })
	f.Cleanup(func() { faultkit.Clear("service.solve") })
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 1 << 16})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	srv := newServer(mgr)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

package saim_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/testkit"
	"github.com/ising-machines/saim/problems"
)

var updatePin = flag.Bool("update", false, "regenerate testdata/pin.golden")

// pinCase is one seeded solve whose result testdata/pin.golden records.
type pinCase struct {
	name   string
	solver string
	model  *saim.Model
	opts   []saim.Option
}

// pinCases enumerates the pinned solves: the penalty and saim backends on
// every constrained testkit instance (saim with its default η > 0), the
// saim backend on every unconstrained one, each under plain, target,
// warm-start and (constrained) patience budgets, serve-cluster-shaped
// max-cut jobs (N=200, average degree 3, 6 runs of 150 sweeps), and one
// 70-replica saim solve: a packed 64-lane group plus six one-lane tasks.
func pinCases(t *testing.T) []pinCase {
	var cases, constrained []pinCase
	var replicated *saim.Model
	for _, suite := range []uint64{1, 2, 3} {
		for _, inst := range testkit.Suite(suite) {
			m := compiled(t, inst.Model)
			switch m.Form() {
			case saim.FormUnconstrained:
				cases = append(cases, budgetCases(inst.Name+"/", "saim", m)...)
			case saim.FormConstrained:
				cases = append(cases, budgetCases(inst.Name+"/", "penalty", m)...)
				constrained = append(constrained, budgetCases(inst.Name+"/saim-", "saim", m)...)
				if inst.Name == "knap-12-1" {
					replicated = m
				}
			}
		}
	}
	for g := uint64(1); g <= 8; g++ {
		p, err := problems.MaxCut(problems.RandomGraph(200, 3.0/199, 10, 1000+g))
		if err != nil {
			t.Fatal(err)
		}
		m := compiled(t, p.Model)
		for seed := uint64(1); seed <= 4; seed++ {
			cases = append(cases, pinCase{
				name:   fmt.Sprintf("maxcut-200-%d/seed%d", g, seed),
				solver: "saim",
				model:  m,
				opts: []saim.Option{saim.WithSeed(seed), saim.WithBetaMax(10),
					saim.WithIterations(6), saim.WithSweepsPerRun(150)},
			})
		}
	}
	cases = append(cases, constrained...)
	return append(cases, pinCase{
		name:   "knap-12-1/saim-replicas70",
		solver: "saim",
		model:  replicated,
		opts:   budget(12, saim.WithReplicas(70)),
	})
}

// budget is the pinned run budget: 80 runs of 150 sweeps from the seed.
func budget(seed uint64, extra ...saim.Option) []saim.Option {
	return append([]saim.Option{saim.WithSeed(seed), saim.WithIterations(80), saim.WithSweepsPerRun(150)}, extra...)
}

// budgetCases pins one solver on one testkit model under two plain seeds,
// a target, a warm start and, for constrained models, a patience stop.
func budgetCases(prefix, solver string, m *saim.Model) []pinCase {
	opt, _, _ := testkit.BruteForce(m)
	var cases []pinCase
	add := func(variant string, opts []saim.Option) {
		cases = append(cases, pinCase{
			name:   prefix + variant,
			solver: solver,
			model:  m,
			opts:   opts,
		})
	}
	add("seed7", budget(7))
	add("seed8", budget(8))
	// Integer data: a half-unit margin keeps the target clear of
	// the rounding of any one cost.
	add("target", budget(9, saim.WithTargetCost(opt+0.5)))
	add("warm", budget(10, saim.WithInitial(make([]int, m.N()))))
	if m.Form() == saim.FormConstrained {
		add("patience", budget(11, saim.WithPatience(6)))
	}
	return cases
}

// pinRecord renders every field of a result as "assign | cost=… …".
func pinRecord(res *saim.Result) string {
	var b strings.Builder
	for _, v := range res.Assignment {
		b.WriteByte(byte('0' + v))
	}
	if b.Len() == 0 {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, " | cost=%s feas=%s pen=%s sweeps=%d iters=%d stopped=%v",
		strconv.FormatFloat(res.Cost, 'g', -1, 64),
		strconv.FormatFloat(res.FeasibleRatio, 'g', -1, 64),
		strconv.FormatFloat(res.Penalty, 'g', -1, 64),
		res.Sweeps, res.Iterations, res.Stopped)
	return b.String()
}

// TestPenaltyAndUnconstrainedPinned replays the seeded solves of pinCases
// and compares each with testdata/pin.golden: every result, assignment
// included, must match bit for bit. Regenerate with
// go test -run TestPenaltyAndUnconstrainedPinned -update.
func TestPenaltyAndUnconstrainedPinned(t *testing.T) {
	path := filepath.Join("testdata", "pin.golden")
	cases := pinCases(t)
	var lines []string
	got := map[string]string{}
	for _, c := range cases {
		res, err := saim.SolveModel(context.Background(), c.solver, c.model, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = pinRecord(res)
		lines = append(lines, fmt.Sprintf("%s %s | %s", c.name, c.solver, got[c.name]))
	}
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		head, rec, ok := strings.Cut(line, " | ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		name, _, _ := strings.Cut(head, " ")
		want[name] = rec
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d cases, the test runs %d", len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: not in the golden", c.name)
			continue
		}
		if g := got[c.name]; g != w {
			t.Errorf("%s %s: got %s, want %s", c.name, c.solver, g, w)
		}
	}
}

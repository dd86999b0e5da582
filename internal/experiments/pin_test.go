package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/qkp"
)

var updatePin = flag.Bool("update", false, "regenerate testdata/table2_penalty.golden")

// TestTable2SmokePenaltyPinned pins the penalty-method solves behind the
// Table II smoke preset's penalty and long-run columns, per instance: the
// same-budget solve at the heuristic P, the tuning probes, and the long
// runs at the tuned P. The results must match bit for bit, because the
// rendered table reads them. Regenerate with -update.
func TestTable2SmokePenaltyPinned(t *testing.T) {
	cfg := Config{Preset: Smoke}
	b := qkpBudgetFor(cfg.Preset, 100)
	var lines []string
	for _, d := range []float64{0.25, 0.5} {
		for id := 1; id <= b.instances; id++ {
			seed := instanceSeed("qkp-t2", b.n, int(d*100), id, cfg.Seed)
			inst := qkp.Generate(b.n, d, id, seed)
			prob := buildQKP(inst)
			solve := func(name string, o core.Options) {
				tr := &core.Trace{}
				o.Trace = tr
				res, err := core.SolvePenaltyContext(cfg.Context(), prob, o)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s %s best=%v cost=%v feas=%d runs=%d sweeps=%d stopped=%v costs=%v",
					inst.Name, name, res.Best, res.BestCost, res.FeasibleCount, res.Iterations, res.TotalSweeps, res.Stopped, feasibleCosts(tr)))
			}
			p0 := core.HeuristicPenalty(prob, b.alpha)
			solve("pen", core.Options{P: p0, Iterations: b.runs, SweepsPerRun: b.sweeps, BetaMax: b.betaMax, Seed: seed ^ 0x5a5a})
			tuned, sweeps, err := tunePenalty(cfg.Context(), prob, p0, 2, 0.2, 7, core.Options{
				Iterations: b.longRuns, SweepsPerRun: b.longMCS / 4, BetaMax: b.betaMax, Seed: seed ^ 0x3c3c,
			})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s tune P=%v ratio=%v cost=%v probes=%d sweeps=%d",
				inst.Name, tuned.P, tuned.FeasibleRatio, tuned.BestCost, tuned.Probes, sweeps))
			solve("long", core.Options{P: tuned.P, Iterations: b.longRuns, SweepsPerRun: b.longMCS, BetaMax: b.betaMax, Seed: seed ^ 0xc3c3})
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "table2_penalty.golden")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Table II smoke penalty solves diverged from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

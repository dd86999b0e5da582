package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/qkp"
)

func smokeCfg() Config { return Config{Preset: Smoke} }

func TestParsePreset(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Preset
	}{{"reduced", Reduced}, {"", Reduced}, {"paper", Paper}, {"smoke", Smoke}} {
		got, err := ParsePreset(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePreset(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePreset("bogus"); err == nil {
		t.Fatal("accepted bogus preset")
	}
}

func TestPresetString(t *testing.T) {
	if Reduced.String() != "reduced" || Paper.String() != "paper" || Smoke.String() != "smoke" {
		t.Fatal("preset strings wrong")
	}
}

func TestInstanceSeedDistinguishes(t *testing.T) {
	a := instanceSeed("qkp", 100, 25, 1, 0)
	b := instanceSeed("qkp", 100, 25, 2, 0)
	c := instanceSeed("qkp", 100, 50, 1, 0)
	d := instanceSeed("mkp", 100, 25, 1, 0)
	e := instanceSeed("qkp", 100, 25, 1, 7)
	seen := map[uint64]bool{}
	for _, s := range []uint64{a, b, c, d, e} {
		if seen[s] {
			t.Fatal("seed collision")
		}
		seen[s] = true
	}
	if a != instanceSeed("qkp", 100, 25, 1, 0) {
		t.Fatal("seed not deterministic")
	}
}

func TestStatsFromTrace(t *testing.T) {
	tr := &core.Trace{
		Cost:     []float64{-90, -100, -50, -100},
		Feasible: []bool{true, true, false, true},
	}
	ss := statsFromTrace(tr, -100)
	if ss.BestAcc != 100 {
		t.Fatalf("BestAcc = %v", ss.BestAcc)
	}
	wantAvg := (90.0 + 100 + 100) / 3
	if math.Abs(ss.AvgAcc-wantAvg) > 1e-9 {
		t.Fatalf("AvgAcc = %v, want %v", ss.AvgAcc, wantAvg)
	}
	if ss.FeasPct != 75 {
		t.Fatalf("FeasPct = %v", ss.FeasPct)
	}
	wantOpt := 100.0 * 2 / 3
	if math.Abs(ss.OptimalPct-wantOpt) > 1e-9 {
		t.Fatalf("OptimalPct = %v, want %v", ss.OptimalPct, wantOpt)
	}
}

func TestStatsFromTraceNoFeasible(t *testing.T) {
	tr := &core.Trace{Cost: []float64{-1}, Feasible: []bool{false}}
	ss := statsFromTrace(tr, -100)
	if ss.BestAcc != 0 || ss.FeasPct != 0 {
		t.Fatalf("stats = %+v", ss)
	}
}

func TestAccuracyHelpers(t *testing.T) {
	if !math.IsNaN(accuracyOf(math.Inf(1), -100)) {
		t.Fatal("infeasible accuracy should be NaN")
	}
	if accuracyOf(-50, -100) != 50 {
		t.Fatal("accuracyOf wrong")
	}
	if !math.IsNaN(meanAccuracy(nil, -100)) {
		t.Fatal("empty meanAccuracy should be NaN")
	}
	if meanAccuracy([]float64{-50, -100}, -100) != 75 {
		t.Fatal("meanAccuracy wrong")
	}
}

// Table II at smoke scale: SAIM must beat the same-budget penalty method on
// average — the paper's headline comparison.
func TestTable2ShapeHolds(t *testing.T) {
	res, err := Table2(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 2 densities × 2 instances
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var saim, pen float64
	var nSAIM, nPen int
	for _, r := range res.Rows {
		if !math.IsNaN(r.SAIMBest) {
			saim += r.SAIMBest
			nSAIM++
		}
		if !math.IsNaN(r.PenBest) {
			pen += r.PenBest
			nPen++
		}
	}
	if nSAIM == 0 {
		t.Fatal("SAIM never found a feasible solution")
	}
	saimAvg := saim / float64(nSAIM)
	penAvg := 0.0
	if nPen > 0 {
		penAvg = pen / float64(nPen)
	}
	// Count missing penalty solutions as the strongest possible failure.
	if nPen < len(res.Rows) {
		penAvg = penAvg * float64(nPen) / float64(len(res.Rows))
	}
	if saimAvg <= penAvg {
		t.Fatalf("SAIM best avg %.1f%% not above penalty best avg %.1f%%", saimAvg, penAvg)
	}
	if !strings.Contains(res.Table.String(), "Table II") {
		t.Fatal("table title missing")
	}
}

// Tables III/IV at smoke scale: SAIM should find feasible near-optimal
// solutions on every instance.
func TestTable3ShapeHolds(t *testing.T) {
	res, err := Table3(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 { // 4 densities × 2 instances
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if math.IsNaN(r.SAIMBest) {
			t.Fatalf("%s: SAIM found nothing", r.Instance)
		}
		if r.SAIMBest < 95 {
			t.Fatalf("%s: SAIM best %.1f%% below 95%%", r.Instance, r.SAIMBest)
		}
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	res, err := Table4(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 2 densities × 2 instances
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if math.IsNaN(r.SAIMBest) || r.SAIMBest < 90 {
			t.Fatalf("%s: SAIM best %v", r.Instance, r.SAIMBest)
		}
	}
}

// Table V at smoke scale: SAIM and GA should both be near the certified
// optimum on tiny MKPs.
func TestTable5ShapeHolds(t *testing.T) {
	res, err := Table5(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.Proven {
			t.Fatalf("%s: smoke MKP not proven optimal", r.Instance)
		}
		if math.IsNaN(r.SAIMBest) || r.SAIMBest < 90 {
			t.Fatalf("%s: SAIM best %v", r.Instance, r.SAIMBest)
		}
		if r.GAAcc < 99 {
			t.Fatalf("%s: GA accuracy %v", r.Instance, r.GAAcc)
		}
		if r.BBTime <= 0 {
			t.Fatalf("%s: missing B&B time", r.Instance)
		}
	}
}

func TestFig3TraceWellFormed(t *testing.T) {
	res, err := Fig3(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Cost) == 0 {
		t.Fatal("empty trace")
	}
	if len(res.Trace.Lambda[0]) != 1 {
		t.Fatalf("QKP should have 1 multiplier, got %d", len(res.Trace.Lambda[0]))
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(res.Trace.Cost)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(res.Trace.Cost)+1)
	}
	if !strings.HasPrefix(lines[0], "iteration,cost,feasible,energy,lambda0") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestFig5TraceHasOneLambdaPerConstraint(t *testing.T) {
	res, err := Fig5(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Lambda[0]) != 3 { // smoke MKP class has M=3
		t.Fatalf("lambda width = %d, want 3", len(res.Trace.Lambda[0]))
	}
	// λ must not be identically zero by the end (constraints bind).
	last := res.Trace.Lambda[len(res.Trace.Lambda)-1]
	all0 := true
	for _, v := range last {
		if v != 0 {
			all0 = false
		}
	}
	if all0 {
		t.Fatal("multipliers never moved")
	}
}

func TestFig4Runs(t *testing.T) {
	res, err := Fig4(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy == nil || res.Budget == nil {
		t.Fatal("missing tables")
	}
	q200, ok := res.SAIMQuartiles[200]
	if !ok {
		t.Fatal("missing N=200 quartiles")
	}
	if q200.Median < 80 {
		t.Fatalf("SAIM median accuracy %v suspiciously low", q200.Median)
	}
	if res.MeasuredSAIMMCS <= 0 {
		t.Fatal("missing measured MCS")
	}
	if !strings.Contains(res.Budget.String(), "7500x") {
		t.Fatal("budget table missing paper speedups")
	}
}

func TestTableIRendersPaperValues(t *testing.T) {
	tb := TableI(Config{Preset: Paper})
	s := tb.String()
	for _, want := range []string{"QKP", "MKP", "2dN", "5dN", "1000", "2000", "5000", "20.00", "0.05"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestWriteCSVEmptyTraceErrors(t *testing.T) {
	tr := &TraceResult{Trace: &core.Trace{}}
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err == nil {
		t.Fatal("empty trace should not serialize")
	}
}

func TestFig4BudgetMatchesPreset(t *testing.T) {
	res, err := Fig4(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	b := qkpBudgetFor(Smoke, 300)
	if res.MeasuredSAIMMCS != int64(b.runs)*int64(b.sweeps) {
		t.Fatalf("measured MCS %d, want %d", res.MeasuredSAIMMCS, int64(b.runs)*int64(b.sweeps))
	}
}

func TestTunePenaltyRaisesPUntilFeasible(t *testing.T) {
	p := qkp.Generate(14, 0.5, 1, 77).ToProblem(constraint.Binary)
	tuned, sweeps, err := tunePenalty(context.Background(), p, 10, 2, 0.2, 10,
		core.Options{Iterations: 20, SweepsPerRun: 150, BetaMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Probes < 1 {
		t.Fatal("no probes executed")
	}
	if tuned.P < 0.02 {
		t.Fatalf("tuned P %v below start", tuned.P)
	}
	if sweeps != int64(tuned.Probes)*20*150 {
		t.Fatalf("sweep accounting: %d for %d probes", sweeps, tuned.Probes)
	}
	if math.IsInf(tuned.BestCost, 1) {
		t.Fatal("tuning never saw a feasible sample")
	}
	if _, _, err := tunePenalty(context.Background(), &core.Problem{}, 10, 2, 0.2, 10, core.Options{}); err == nil {
		t.Fatal("accepted an invalid problem")
	}
}

// Production planning with synergies and an exact staffing constraint —
// demonstrates quadratic objectives together with mixed ≤/= constraints on
// the declarative layer, plus progress streaming and the named
// per-constraint slack report.
//
//	go run ./examples/production
//
// A plant selects which of 12 product variants to run next quarter. Each
// variant has a base margin; some share tooling, which *adds* margin when
// both run (a quadratic bonus — this is what distinguishes an Ising-style
// solver from a linear one). Machine-hours are limited, and exactly four
// production lines must be staffed (an equality constraint).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/model"
)

func main() {
	names := []string{
		"sedan-trim-a", "sedan-trim-b", "wagon-base", "wagon-sport",
		"pickup-short", "pickup-long", "van-cargo", "van-pass",
		"suv-base", "suv-lux", "coupe", "hybrid",
	}
	margin := []float64{140, 120, 90, 110, 150, 160, 80, 95, 170, 210, 60, 130}
	hours := []float64{30, 28, 22, 26, 35, 38, 18, 20, 40, 48, 15, 33}
	const hourBudget = 160
	// Shared tooling: running both variants of a pair adds margin.
	synergies := []struct {
		a, b  int
		bonus float64
	}{
		{0, 1, 45}, {2, 3, 35}, {4, 5, 60}, {6, 7, 30}, {8, 9, 55}, {9, 11, 25},
	}
	const linesToStaff = 4

	m := model.New()
	run := m.Binary("run", len(names))
	terms := []model.Expr{model.Dot(margin, run)}
	for _, s := range synergies {
		terms = append(terms, run[s.a].Times(run[s.b]).Mul(s.bonus))
	}
	m.Maximize(model.Sum(terms...))
	m.Constrain("hours", model.Dot(hours, run).LE(hourBudget))
	m.Constrain("lines", run.Sum().EQ(linesToStaff))

	sol, err := m.Solve(context.Background(), "saim",
		saim.WithIterations(800),
		saim.WithSweepsPerRun(400),
		saim.WithEta(2),
		saim.WithSeed(11),
		// Stream the search: every 200 λ updates, print where it stands.
		saim.WithProgress(func(p saim.Progress) {
			if (p.Iteration+1)%200 == 0 {
				fmt.Fprintf(os.Stderr, "  iter %d/%d: best %.0f, feasible %.1f%%, |lambda| %.2f\n",
					p.Iteration+1, p.Iterations, p.BestCost, p.FeasibleRatio, p.LambdaNorm)
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	if !sol.Feasible() {
		log.Fatal("no feasible plan found")
	}

	fmt.Println("production plan:")
	for i, name := range names {
		if sol.Value("run", i) == 1 {
			fmt.Printf("  %-12s margin %3.0f, hours %2.0f\n", name, margin[i], hours[i])
		}
	}
	fmt.Printf("total margin incl. synergies: %.0f\n", sol.Objective())
	for _, cs := range sol.Constraints() {
		fmt.Printf("  %-6s %v %4.0f  used %4.0f  slack %4.0f  satisfied=%v\n",
			cs.Name, cs.Sense, cs.Bound, cs.Activity, cs.Slack, cs.Satisfied)
	}
	fmt.Printf("feasible samples %.1f%%\n", sol.Result().FeasibleRatio)
}

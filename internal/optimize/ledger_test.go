package optimize_test

import (
	"fmt"
	"strings"
	"testing"

	"diversify"
)

// ledgerStrategies are the strategies the ledger compares.
var ledgerStrategies = []string{"greedy", "anneal", "pareto"}

// ledgerInstances are the 13 grid:60 problems of the strategy ledger,
// all at the golden config (budget 30, 8 reps, 240 h): seeds 1–4 under
// the success objective, the foothold objective, and the foothold
// objective with the two golden rotation schedules, plus seed 1 under a
// per-zone variant cap of 2.
func ledgerInstances() []goldenCase {
	var cases []goldenCase
	for seed := uint64(1); seed <= 4; seed++ {
		success := goldenConfig("")
		success.Seed = seed
		foothold := success
		foothold.Objective = "foothold"
		rotating := foothold
		rotating.Rotations = []string{"adaptive:24x2", "triggered:48"}
		cases = append(cases,
			goldenCase{fmt.Sprintf("s%d-success", seed), success},
			goldenCase{fmt.Sprintf("s%d-foothold", seed), foothold},
			goldenCase{fmt.Sprintf("s%d-rotate-foothold", seed), rotating})
	}
	zone := goldenConfig("")
	zone.Seed = 1
	zone.MaxPerZone = 2
	return append(cases, goldenCase{"s1-zone2", zone})
}

// TestStrategyLedger runs every strategy on every ledger instance and
// logs value, cost and evaluations side by side (go test -v shows the
// table). It asserts only what holds by construction: every winner fits
// the budget and is never worse than the baseline, which is itself a
// candidate. Which strategy wins is evidence, not a contract.
func TestStrategyLedger(t *testing.T) {
	var tab strings.Builder
	fmt.Fprintf(&tab, "%-20s", "instance")
	for _, s := range ledgerStrategies {
		fmt.Fprintf(&tab, " | %-26s", s+" value/cost/evals")
	}
	for _, tc := range ledgerInstances() {
		fmt.Fprintf(&tab, "\n%-20s", tc.name)
		for _, s := range ledgerStrategies {
			cfg := tc.cfg
			cfg.Strategy = s
			res, err := diversify.OptimizeContext(t.Context(), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, s, err)
			}
			if res.Best.Cost > cfg.Budget+1e-9 {
				t.Errorf("%s/%s: best cost %v over budget %v", tc.name, s, res.Best.Cost, cfg.Budget)
			}
			if res.Best.Value > res.Baseline.Value {
				t.Errorf("%s/%s: best %v worse than baseline %v", tc.name, s, res.Best.Value, res.Baseline.Value)
			}
			fmt.Fprintf(&tab, " | %-12.6g %4.0f %8d", res.Best.Value, res.Best.Cost, res.Evaluations)
		}
	}
	t.Log("strategy ledger (grid:60, budget 30, 8 reps, 240 h):\n" + tab.String())
}

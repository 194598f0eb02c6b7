package optimize

import (
	"context"
	"fmt"

	"diversify/internal/rng"
)

// Portfolio chains the three base strategies: a greedy marginal-gain
// pass maps the terrain, then simulated annealing and the genetic search
// both start FROM the greedy incumbent instead of the empty overlay.
// Greedy is cheap and reliably finds a good basin; the stochastic
// searches then spend their iterations escaping its local optimum rather
// than rediscovering it. All three share one evaluator (and so one
// fingerprint cache and one archive), which is also what makes the final
// extraction a best-of-portfolio: Run picks the best feasible candidate
// and the Pareto front over everything any stage evaluated.
type Portfolio struct{}

// Name implements Optimizer.
func (*Portfolio) Name() string { return "portfolio" }

// Search implements Optimizer. Each stage draws from its own role-keyed
// stream, so the portfolio is deterministic for a given seed and its
// stages do not perturb one another's draws. A cancelled context stops
// the chain after the current stage's partial trace — everything the
// earlier stages evaluated stays in the shared archive.
//
//diversify:det-root seeded search entry point: same seed, same trace
func (*Portfolio) Search(ctx context.Context, p *Problem, ev *Evaluator, _ *rng.Rand) ([]TraceStep, error) {
	var trace []TraceStep
	appendStage := func(stage string, steps []TraceStep) {
		for _, s := range steps {
			s.Action = stage + ": " + s.Action
			s.Iter = len(trace)
			trace = append(trace, s)
		}
	}
	greedy := &Greedy{}
	gSteps, err := greedy.Search(ctx, p, ev, newSearchRand(p.Seed, "portfolio-greedy"))
	appendStage("greedy", gSteps)
	if err != nil {
		return trace, err
	}

	// Seed the stochastic stages from the best feasible candidate so far
	// (the greedy incumbent — placement AND schedule — or the baseline
	// when greedy found nothing).
	seeded := *p
	if _, bestC, _ := ev.bestFeasible(); bestC.A != nil {
		seeded.Base = bestC.A
		seeded.BaseRotation = bestC.Rot + 1
	}
	aSteps, err := (&Anneal{}).Search(ctx, &seeded, ev, newSearchRand(p.Seed, "portfolio-anneal"))
	appendStage("anneal", aSteps)
	if err != nil {
		return trace, err
	}

	// Genetic restarts from the CURRENT best (annealing may have improved
	// on greedy), seeding its population with the strongest incumbent.
	if _, bestC, _ := ev.bestFeasible(); bestC.A != nil {
		seeded.Base = bestC.A
		seeded.BaseRotation = bestC.Rot + 1
	}
	genSteps, err := (&Genetic{}).Search(ctx, &seeded, ev, newSearchRand(p.Seed, "portfolio-genetic"))
	appendStage("genetic", genSteps)
	if err != nil {
		return trace, err
	}

	best, _, fp := ev.bestFeasible()
	trace = append(trace, TraceStep{
		Iter:     len(trace),
		Action:   fmt.Sprintf("portfolio best %016x", fp),
		Cost:     best.Cost,
		Value:    best.Value,
		Best:     best.Value,
		Accepted: true,
	})
	ev.noteRound("portfolio", &trace[len(trace)-1], 0)
	return trace, nil
}

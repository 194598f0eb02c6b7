package optimize

import (
	"context"
	"math"

	"diversify/internal/rng"
)

// Anneal is simulated annealing over the neighbor moves of moveSpace
// (upgrade / drop / relocate / swap). Worse candidates are accepted with
// probability exp(−Δ/T) under a geometric cooling schedule, which lets
// the search hop out of the local optima greedy gets stuck in (e.g.
// spreading budget thinly when a concentrated cut-set placement wins).
// Because annealing revisits neighborhoods, the evaluator's fingerprint
// cache turns a substantial fraction of proposals into cache hits.
type Anneal struct{}

// The geometric temperature schedule runs from T0 = annealT0 scaled up
// by the baseline objective magnitude when it exceeds 1 — probability-
// valued objectives anneal at 0.08, while hour-valued ones (MaximizeTTSF)
// get a temperature in their own units instead of degenerating to
// hill-climbing — down to Tmin = T0/annealCooling.
const (
	annealT0      = 0.08
	annealCooling = 40
)

// Name implements Optimizer.
func (*Anneal) Name() string { return "anneal" }

// Search implements Optimizer.
//
//diversify:det-root seeded search entry point: same seed, same trace
func (*Anneal) Search(ctx context.Context, p *Problem, ev *Evaluator, r *rng.Rand) ([]TraceStep, error) {
	iters := p.Iterations
	if iters <= 0 {
		iters = 300
	}
	ms := newMoveSpace(p)
	current := p.baseCand()
	cur, err := ev.Score(current)
	if err != nil {
		return nil, err
	}
	t0 := annealT0 * math.Max(1, math.Abs(cur.Value))
	tmin := t0 / annealCooling
	alpha := 1.0
	if iters > 1 {
		alpha = math.Pow(tmin/t0, 1/float64(iters-1))
	}
	best := cur.Value
	trace := make([]TraceStep, 0, iters)
	temp := t0
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return trace, err
		}
		cand := current.Clone()
		action := ms.mutate(&cand, r)
		s, err := ev.Score(cand)
		if err != nil {
			return trace, err
		}
		// A refused (infeasible) proposal spent no replications: its step
		// keeps the incumbent's value and draws nothing from r.
		step := TraceStep{Iter: it, Action: action, Cost: s.Cost, Value: s.Value}
		switch s.refused {
		case overBudget:
			step.Action, step.Value = action+" [over budget]", cur.Value
		case overZoneCap:
			step.Action, step.Cost, step.Value = action+" [zone cap]", cur.Cost, cur.Value
		default:
			delta := s.Value - cur.Value
			step.Accepted = delta <= 0 || r.Float64() < math.Exp(-delta/temp)
			if step.Accepted {
				current, cur = cand, s
				if cur.Value < best {
					best = cur.Value
				}
			}
		}
		step.Best = best
		trace = append(trace, step)
		ev.noteRound("anneal", false, &trace[len(trace)-1], 0)
		temp *= alpha
	}
	return trace, nil
}

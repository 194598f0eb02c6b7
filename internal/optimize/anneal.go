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
		if cost := ev.Cost(cand); !p.withinBudget(cost) {
			// Infeasible proposals are rejected without spending
			// replications; Value keeps the incumbent's value.
			trace = append(trace, TraceStep{
				Iter: it, Action: action + " [over budget]",
				Cost: cost, Value: cur.Value, Best: best, Accepted: false,
			})
			ev.noteRound("anneal", &trace[len(trace)-1], 0)
			temp *= alpha
			continue
		}
		if !ev.ZoneOK(cand.A) {
			// Same fast rejection for zone-constraint violations.
			trace = append(trace, TraceStep{
				Iter: it, Action: action + " [zone cap]",
				Cost: cur.Cost, Value: cur.Value, Best: best, Accepted: false,
			})
			ev.noteRound("anneal", &trace[len(trace)-1], 0)
			temp *= alpha
			continue
		}
		s, err := ev.Score(cand)
		if err != nil {
			return trace, err
		}
		delta := s.Value - cur.Value
		accepted := delta <= 0 || r.Float64() < math.Exp(-delta/temp)
		if accepted {
			current, cur = cand, s
			if cur.Value < best {
				best = cur.Value
			}
		}
		trace = append(trace, TraceStep{
			Iter: it, Action: action,
			Cost: s.Cost, Value: s.Value, Best: best, Accepted: accepted,
		})
		ev.noteRound("anneal", &trace[len(trace)-1], 0)
		temp *= alpha
	}
	return trace, nil
}

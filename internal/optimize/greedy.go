package optimize

import (
	"context"
	"fmt"
	"math"

	"diversify/internal/diversity"
	"diversify/internal/rng"
)

// Greedy is marginal-gain placement-and-schedule search: every round it
// tentatively applies each affordable option to the incumbent — the
// surrogate-screened placement switches plus, when the problem carries
// rotation schedules, switching the incumbent to each other schedule —
// keeps the move with the best objective-improvement-per-unit-cost
// ratio, and stops when no affordable move improves the objective (or
// the round bound is hit). With a memoizing evaluator each round costs
// at most |screened options| + |schedules| simulations. The screened
// survivors are scanned in ascending option order, exactly as the
// exhaustive scan would visit them, so ties resolve identically.
type Greedy struct{}

// Name implements Optimizer.
func (*Greedy) Name() string { return "greedy" }

// Search implements Optimizer. Greedy is deterministic and ignores r.
//
//diversify:det-root seeded search entry point: same seed, same trace
func (*Greedy) Search(ctx context.Context, p *Problem, ev *Evaluator, _ *rng.Rand) ([]TraceStep, error) {
	trace, _, err := greedySearch(ctx, p, ev, p.Iterations, false)
	return trace, err
}

// greedySearch runs the marginal-gain loop and additionally returns the
// incumbent candidate after every accepted round — the trajectory the
// NSGA-II strategy seeds its population from. Cancellation stops the
// loop at the next round (or evaluation) boundary, returning the rounds
// accepted so far together with the context error. seeding marks the
// rounds in the event stream as another strategy's seeding pass.
func greedySearch(ctx context.Context, p *Problem, ev *Evaluator, maxRounds int, seeding bool) ([]TraceStep, []Candidate, error) {
	current := p.baseCand()
	cur, err := ev.Score(current)
	if err != nil {
		return nil, nil, err
	}
	if maxRounds <= 0 {
		maxRounds = len(p.Options) + len(p.Rotations)
	}
	order := screenOrder(p)
	nodes := p.Topo.Nodes()
	var trace []TraceStep
	var incumbents []Candidate
	// Every option of a round differs from the incumbent in one pair, so
	// the incumbent is the reference its probes replay from; the
	// reference ends with the search.
	defer ev.setReference(Candidate{Rot: -1})
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return trace, incumbents, err
		}
		ev.setReference(current)
		// bestIdx >= 0 selects an option; bestRot != current.Rot (with
		// bestIdx == -1) selects a schedule switch.
		bestIdx, bestRot := -1, current.Rot
		found := false
		bestRatio := 0.0
		var bestScore Score
		// consider skips refused candidates: infeasibleValue shows no gain.
		consider := func(s Score, idx, rot int) {
			if gain := cur.Value - s.Value; gain > 0 {
				ratio := gain / math.Max(s.Cost-cur.Cost, 1e-9)
				if !found || ratio > bestRatio {
					found, bestIdx, bestRot, bestRatio, bestScore = true, idx, rot, ratio, s
				}
			}
		}
		for _, i := range order {
			opt := p.Options[i]
			// Skip no-ops: the node already runs this variant.
			if v, ok := diversity.EffectiveVariant(current.A, nodes[opt.Node], opt.Class); ok && v == opt.Variant {
				continue
			}
			prev, had := current.A.Lookup(opt.Node, opt.Class)
			opt.Apply(current.A)
			s, err := ev.Score(current)
			// Undo the probe first, so the incumbents returned on
			// cancellation are real accepted rounds.
			current.A.Restore(opt.Node, opt.Class, prev, had)
			if err != nil {
				return trace, incumbents, err
			}
			consider(s, i, current.Rot)
		}
		// Schedule switches: pair the incumbent placement with every other
		// schedule (and with none).
		for rot := -1; rot < len(p.Rotations); rot++ {
			if rot == current.Rot {
				continue
			}
			s, err := ev.Score(Candidate{A: current.A, Rot: rot})
			if err != nil {
				return trace, incumbents, err
			}
			consider(s, -1, rot)
		}
		if !found {
			break // no affordable move improves the objective
		}
		action := ""
		if bestIdx >= 0 {
			chosen := p.Options[bestIdx]
			chosen.Apply(current.A)
			action = fmt.Sprintf("apply %s:%s=%s", nodes[chosen.Node].Name, chosen.Class, chosen.Variant)
		} else {
			current.Rot = bestRot
			action = "rotate " + p.rotName(bestRot)
		}
		cur = bestScore
		incumbents = append(incumbents, current.Clone())
		trace = append(trace, TraceStep{
			Iter:     round,
			Action:   action,
			Cost:     cur.Cost,
			Value:    cur.Value,
			Best:     cur.Value,
			Accepted: true,
		})
		ev.noteRound("greedy", seeding, &trace[len(trace)-1], 0)
	}
	return trace, incumbents, nil
}

package optimize

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"diversify/internal/diversity"
	"diversify/internal/rng"
)

// Genetic is a population-based search: individuals are node-variant
// overlays, recombined by uniform crossover over the union of their
// overlay decisions, mutated with moveSpace moves and repaired back under
// budget. Elites carry over unchanged each generation (their re-scores
// are cache hits by construction). Iterations is the generation count.
type Genetic struct{}

// Genetic's breeding constants: per-child mutation probability, the
// number of top individuals copied unchanged into the next generation,
// and the selection tournament size.
const (
	geneticMutProb    = 0.35
	geneticElite      = 2
	geneticTournament = 3
)

// Name implements Optimizer.
func (*Genetic) Name() string { return "genetic" }

// pind is one scored population member — the genetic and NSGA-II
// searches share it; vec caches the objective vector over the problem's
// front axes (empty for the single-objective genetic search).
type pind struct {
	c   Candidate
	s   Score
	fp  uint64
	vec []float64
}

// scorePop scores every member, in order, into a population.
func scorePop(ev *Evaluator, axes []Axis, members []Candidate) ([]pind, error) {
	out := make([]pind, len(members))
	for i, c := range members {
		s, err := ev.Score(c)
		if err != nil {
			return nil, err
		}
		out[i] = pind{c: c, s: s, fp: c.fingerprint(ev.rotFPs), vec: objVec(axes, s)}
	}
	return out, nil
}

// Search implements Optimizer.
//
//diversify:det-root seeded search entry point: same seed, same trace
func (*Genetic) Search(ctx context.Context, p *Problem, ev *Evaluator, r *rng.Rand) ([]TraceStep, error) {
	gens := p.Iterations
	if gens <= 0 {
		gens = 25
	}
	popSize := max(p.Population, 4)
	ms := newMoveSpace(p)
	// Seed population: the incumbent plus random feasible fills.
	pop, err := scorePop(ev, nil, ms.fill([]Candidate{p.baseCand()}, popSize, ev, r))
	if err != nil {
		return nil, err
	}
	// Tournaments prefer the lower value, then the lower fingerprint.
	better := func(a, b int) bool {
		return pop[a].s.Value < pop[b].s.Value || (pop[a].s.Value == pop[b].s.Value && pop[a].fp < pop[b].fp)
	}
	pick := func() Candidate { return pop[tournament(r, len(pop), geneticTournament, better)].c }
	rank := func() {
		slices.SortFunc(pop, func(x, y pind) int {
			if c := cmp.Compare(x.s.Value, y.s.Value); c != 0 {
				return c
			}
			return cmp.Compare(x.fp, y.fp)
		})
	}
	trace := make([]TraceStep, 0, gens)
	for gen := 0; gen < gens; gen++ {
		if err := ctx.Err(); err != nil {
			return trace, err
		}
		rank()
		trace = append(trace, TraceStep{
			Iter:   gen,
			Action: fmt.Sprintf("generation %d: best %016x", gen, pop[0].fp),
			Cost:   pop[0].s.Cost, Value: pop[0].s.Value, Best: pop[0].s.Value,
			Accepted: true,
		})
		ev.noteRound("genetic", &trace[len(trace)-1], 0)
		next := make([]Candidate, 0, popSize)
		for i := 0; i < geneticElite; i++ {
			next = append(next, pop[i].c.Clone())
		}
		next = ms.breed(next, popSize, geneticMutProb, pick, ev, r)
		if pop, err = scorePop(ev, nil, next); err != nil {
			return trace, err
		}
	}
	rank()
	trace = append(trace, TraceStep{
		Iter:   gens,
		Action: fmt.Sprintf("final: best %016x", pop[0].fp),
		Cost:   pop[0].s.Cost, Value: pop[0].s.Value, Best: pop[0].s.Value,
		Accepted: true,
	})
	ev.noteRound("genetic", &trace[len(trace)-1], 0)
	return trace, nil
}

// crossover recombines two candidates: overlays uniformly — for every
// (node, class) decided by either parent, the child inherits one
// parent's state, including "absent" (topology default) — and the
// schedule from a fair-coin parent. Keys are visited in canonical order
// so recombination is deterministic.
func crossover(ca, cb Candidate, r *rng.Rand) Candidate {
	a, b := ca.A, cb.A
	child := diversity.NewAssignment()
	ea, eb := a.Entries(), b.Entries()
	i, j := 0, 0
	take := func(e diversity.Entry, from *diversity.Assignment) {
		if v, ok := from.Lookup(e.Node, e.Class); ok {
			child.Set(e.Node, e.Class, v)
		}
	}
	for i < len(ea) || j < len(eb) {
		var e diversity.Entry
		switch {
		case j >= len(eb):
			e = ea[i]
			i++
		case i >= len(ea):
			e = eb[j]
			j++
		default:
			switch c := cmp.Compare(ea[i].Node, eb[j].Node); {
			case c < 0 || (c == 0 && ea[i].Class < eb[j].Class):
				e = ea[i]
				i++
			case c > 0 || (c == 0 && ea[i].Class > eb[j].Class):
				e = eb[j]
				j++
			default: // same (node, class) in both parents
				e = ea[i]
				i++
				j++
			}
		}
		if r.Bool(0.5) {
			take(e, a)
		} else {
			take(e, b)
		}
	}
	rot := ca.Rot
	if r.Bool(0.5) {
		rot = cb.Rot
	}
	return Candidate{A: child, Rot: rot}
}

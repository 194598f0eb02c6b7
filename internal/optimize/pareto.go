package optimize

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"diversify/internal/diversity"
	"diversify/internal/rng"
)

// Pareto is an NSGA-II-style multi-objective search over the problem's
// front axes (default cost × attack-success × detection speed, all
// minimized): fast non-dominated sorting ranks the population into
// fronts, crowding distance spreads survivors along each front, and
// binary tournaments on (rank, crowding) select parents for uniform
// crossover over overlay decisions, annealing's mutation moves and
// budget repair. Instead of collapsing the objectives into one scalar
// it grows the archive toward the whole trade-off surface; Run then
// extracts the deduplicated non-dominated front from everything
// evaluated.
//
// The population is seeded from the screened-greedy trajectory: a
// bounded marginal-gain pass maps the terrain (its evaluations land in
// the shared cache, so nothing is wasted) and its incumbent prefixes —
// cheap early rounds through the full greedy spend — give the first
// generation a cost-spread spine of known-good placements instead of
// uniform noise.
//
// Iterations is the generation count, Population the population size.
// Every comparison is tie-broken by candidate fingerprint, so the
// search — and the front it leaves behind — is deterministic for a
// given seed regardless of the worker count.
type Pareto struct {
	// randomInit seeds the population with random fills instead of the
	// greedy trajectory: the pre-seeding behavior, kept as the reference
	// the seeded search is tested against.
	randomInit bool
}

// NSGA-II's breeding constants: the per-child mutation probability
// (high, because diversity along the front matters more than
// convergence to a single optimum), the NSGA-II standard binary
// tournament, and the greedy rounds that seed the population (fewer
// than the minimum population of 8, so the spine always fits).
const (
	paretoMutProb    = 0.45
	paretoTournament = 2
	paretoSeedRounds = 4
)

// Name implements Optimizer.
func (*Pareto) Name() string { return "pareto" }

// Search implements Optimizer.
//
//diversify:det-root seeded search entry point: same seed, same trace
func (pt *Pareto) Search(ctx context.Context, p *Problem, ev *Evaluator, r *rng.Rand) ([]TraceStep, error) {
	gens := p.Iterations
	if gens <= 0 {
		gens = 20
	}
	popSize := max(p.Population, 8)
	ms := newMoveSpace(p)
	// Seed population: the base candidate, then the screened-greedy
	// trajectory prefixes (unless randomInit), then random feasible fills
	// for whatever slots remain.
	members := make([]Candidate, 0, popSize)
	members = append(members, p.baseCand())
	if !pt.randomInit {
		// The seeding pass runs under a screen clamped to a few times the
		// population size: enough surrogate-top options per round to lay a
		// known-good spine, without the full greedy search's per-round
		// spend on grid-scale option spaces.
		seedP := *p
		if clamp := 4 * popSize; seedP.ScreenTop <= 0 || seedP.ScreenTop > clamp {
			seedP.ScreenTop = clamp
		}
		_, incumbents, err := greedySearch(ctx, &seedP, ev, paretoSeedRounds, true)
		if err != nil {
			return nil, err
		}
		members = append(members, incumbents...)
	}
	pop, err := scorePop(ev, p.Axes, ms.fill(members, popSize, ev, r))
	if err != nil {
		return nil, err
	}
	trace := make([]TraceStep, 0, gens+1)
	for gen := 0; gen < gens; gen++ {
		if err := ctx.Err(); err != nil {
			return trace, err
		}
		rank, crowd := rankAndCrowd(p.Axes, pop)
		step, front := paretoTraceStep(gen, pop, rank)
		trace = append(trace, step)
		ev.noteRound("pareto", false, &trace[len(trace)-1], front)
		better := func(a, b int) bool { return pindLess(rank, crowd, pop, a, b) }
		pick := func() Candidate { return pop[tournament(r, len(pop), paretoTournament, better)].c }
		// Offspring generation, then (mu+lambda) environmental selection
		// over parents ∪ children.
		children := ms.breed(make([]Candidate, 0, popSize), popSize, paretoMutProb, pick, ev, r)
		scored, err := scorePop(ev, p.Axes, children)
		if err != nil {
			return trace, err
		}
		pop = selectSurvivors(p.Axes, append(pop, scored...), popSize)
	}
	rank, _ := rankAndCrowd(p.Axes, pop)
	step, front := paretoTraceStep(gens, pop, rank)
	trace = append(trace, step)
	ev.noteRound("pareto", false, &trace[len(trace)-1], front)
	return trace, nil
}

// paretoTraceStep summarizes one generation — how wide front 0 is and
// the best (lowest) success-axis member, which doubles as the step
// value — returning the step together with the front-0 size.
func paretoTraceStep(gen int, pop []pind, rank []int) (TraceStep, int) {
	frontSize := 0
	best := math.Inf(1)
	bestCost := 0.0
	for i, ind := range pop {
		if rank[i] == 0 {
			frontSize++
		}
		if v := AxisSuccess.of(ind.s); v < best || (v == best && ind.s.Cost < bestCost) {
			best, bestCost = v, ind.s.Cost
		}
	}
	return TraceStep{
		Iter:     gen,
		Action:   fmt.Sprintf("generation %d: front %d/%d", gen, frontSize, len(pop)),
		Cost:     bestCost,
		Value:    best,
		Best:     best,
		Accepted: true,
	}, frontSize
}

// pindLess is the NSGA-II crowded-comparison operator: lower rank wins,
// then larger crowding distance, then lower fingerprint (determinism).
func pindLess(rank []int, crowd []float64, pop []pind, a, b int) bool {
	if rank[a] != rank[b] {
		return rank[a] < rank[b]
	}
	if crowd[a] != crowd[b] {
		return crowd[a] > crowd[b]
	}
	return pop[a].fp < pop[b].fp
}

// rankAndCrowd computes the non-domination rank and crowding distance of
// every member.
func rankAndCrowd(axes []Axis, pop []pind) (rank []int, crowd []float64) {
	fronts := nonDominatedFronts(pop)
	rank = make([]int, len(pop))
	crowd = make([]float64, len(pop))
	for fi, front := range fronts {
		for _, i := range front {
			rank[i] = fi
		}
		crowdingDistance(axes, pop, front, crowd)
	}
	return rank, crowd
}

// nonDominatedFronts performs fast non-dominated sorting: front 0 is the
// non-dominated set, front k the set dominated only by fronts < k.
// Within a front, members keep ascending population index (stable).
func nonDominatedFronts(pop []pind) [][]int {
	n := len(pop)
	domCount := make([]int, n)    // how many members dominate i
	dominated := make([][]int, n) // members i dominates
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case dominates(pop[i].vec, pop[j].vec):
				dominated[i] = append(dominated[i], j)
				domCount[j]++
			case dominates(pop[j].vec, pop[i].vec):
				dominated[j] = append(dominated[j], i)
				domCount[i]++
			}
		}
	}
	var fronts [][]int
	var current []int
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			current = append(current, i)
		}
	}
	for len(current) > 0 {
		fronts = append(fronts, current)
		var next []int
		for _, i := range current {
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		slices.Sort(next)
		current = next
	}
	return fronts
}

// crowdingDistance fills dist for the members of one front: boundary
// members on each axis get +Inf, interior ones the sum of normalized
// neighbor gaps. Sorting ties break on fingerprint so equal-valued
// members get deterministic distances.
func crowdingDistance(axes []Axis, pop []pind, front []int, dist []float64) {
	if len(front) <= 2 {
		for _, i := range front {
			dist[i] = math.Inf(1)
		}
		return
	}
	order := make([]int, len(front))
	for ai := range axes {
		copy(order, front)
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(pop[a].vec[ai], pop[b].vec[ai]); c != 0 {
				return c
			}
			return cmp.Compare(pop[a].fp, pop[b].fp)
		})
		lo := pop[order[0]].vec[ai]
		hi := pop[order[len(order)-1]].vec[ai]
		dist[order[0]] = math.Inf(1)
		dist[order[len(order)-1]] = math.Inf(1)
		if span := hi - lo; span > 0 {
			for k := 1; k < len(order)-1; k++ {
				gap := (pop[order[k+1]].vec[ai] - pop[order[k-1]].vec[ai]) / span
				dist[order[k]] += gap
			}
		}
	}
}

// selectSurvivors keeps the best popSize members of the combined
// parent+offspring pool under the crowded comparison, after dropping
// fingerprint duplicates (the memoizing evaluator makes revisits cheap,
// but clones add nothing to the front).
func selectSurvivors(axes []Axis, pool []pind, popSize int) []pind {
	slices.SortFunc(pool, func(a, b pind) int { return cmp.Compare(a.fp, b.fp) })
	uniq := pool[:0]
	for i, ind := range pool {
		if i > 0 && uniq[len(uniq)-1].fp == ind.fp {
			continue
		}
		uniq = append(uniq, ind)
	}
	rank, crowd := rankAndCrowd(axes, uniq)
	idx := make([]int, len(uniq))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if pindLess(rank, crowd, uniq, a, b) {
			return -1
		}
		if pindLess(rank, crowd, uniq, b, a) {
			return 1
		}
		return 0
	})
	if popSize > len(idx) {
		popSize = len(idx)
	}
	out := make([]pind, popSize)
	for i := 0; i < popSize; i++ {
		out[i] = uniq[idx[i]]
	}
	return out
}

// pind is one scored population member of the NSGA-II search (and of
// the front extraction); vec caches the objective vector over the
// problem's front axes.
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

// tournament draws k uniform indices into a population of n and returns
// the best under less.
func tournament(r *rng.Rand, n, k int, less func(a, b int) bool) int {
	best := r.Intn(n)
	for i := 1; i < k; i++ {
		if c := r.Intn(n); less(c, best) {
			best = c
		}
	}
	return best
}

package optimize

import (
	"fmt"
	"slices"

	"diversify/internal/exploits"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// classVariant keys the relocation index.
type classVariant struct {
	class   exploits.Class
	variant exploits.VariantID
}

// moveSpace precomputes the neighborhood structure annealing and the
// NSGA-II mutator draw moves from: the flat option list, the nodes
// carrying each class, and the nodes each (class, variant) can go to.
type moveSpace struct {
	p       *Problem
	classes []exploits.Class // sorted, classes present in the option space
	byClass map[exploits.Class][]topology.NodeID
	byCV    map[classVariant][]topology.NodeID
}

func newMoveSpace(p *Problem) *moveSpace {
	ms := &moveSpace{
		p:       p,
		byClass: map[exploits.Class][]topology.NodeID{},
		byCV:    map[classVariant][]topology.NodeID{},
	}
	type classNode struct {
		class exploits.Class
		node  topology.NodeID
	}
	seen := map[classNode]bool{}
	for _, opt := range p.Options {
		cn := classNode{opt.Class, opt.Node}
		if !seen[cn] {
			seen[cn] = true
			ms.byClass[opt.Class] = append(ms.byClass[opt.Class], opt.Node)
		}
		cv := classVariant{opt.Class, opt.Variant}
		ms.byCV[cv] = append(ms.byCV[cv], opt.Node)
		if !slices.Contains(ms.classes, opt.Class) {
			ms.classes = append(ms.classes, opt.Class)
		}
	}
	slices.Sort(ms.classes)
	// Options are sorted, so the per-key node lists are already in
	// ascending order — the move draws are deterministic.
	return ms
}

// mutate applies one random neighbor move to the candidate in place and
// returns a human-readable description. Moves: upgrade (install a
// random option), drop (remove a random overlay decision), relocate
// (move a decision to another eligible node), swap (exchange two nodes'
// decisions for a class), and — when the problem searches schedules —
// reschedule (switch the rotation policy, including back to static).
// Degenerate cases fall back to upgrade so every call mutates.
func (ms *moveSpace) mutate(c *Candidate, r *rng.Rand) string {
	a := c.A
	nodes := ms.p.Topo.Nodes()
	nMoves := 4
	if len(ms.p.Rotations) > 0 {
		nMoves = 5
	}
	switch r.Intn(nMoves) {
	case 4: // reschedule (only drawn when Rotations is non-empty)
		// Uniform over the schedule space {static, 0..len-1} minus the
		// current choice: draw from len(Rotations) slots and skip past the
		// incumbent.
		next := r.Intn(len(ms.p.Rotations)) - 1
		if next >= c.Rot {
			next++
		}
		c.Rot = next
		return "reschedule " + ms.p.rotName(next)
	case 1: // drop
		entries := a.Entries()
		if len(entries) == 0 {
			break
		}
		e := entries[r.Intn(len(entries))]
		a.Unset(e.Node, e.Class)
		return fmt.Sprintf("drop %s:%s", nodes[e.Node].Name, e.Class)
	case 2: // relocate
		entries := a.Entries()
		if len(entries) == 0 {
			break
		}
		e := entries[r.Intn(len(entries))]
		targets := ms.byCV[classVariant{e.Class, e.Variant}]
		// Exclude the current holder.
		pool := make([]topology.NodeID, 0, len(targets))
		for _, t := range targets {
			if t != e.Node {
				pool = append(pool, t)
			}
		}
		if len(pool) == 0 {
			break
		}
		to := pool[r.Intn(len(pool))]
		a.Unset(e.Node, e.Class)
		a.Set(to, e.Class, e.Variant)
		return fmt.Sprintf("relocate %s %s→%s=%s", e.Class, nodes[e.Node].Name, nodes[to].Name, e.Variant)
	case 3: // swap
		class := ms.classes[r.Intn(len(ms.classes))]
		carriers := ms.byClass[class]
		if len(carriers) >= 2 {
			i := r.Intn(len(carriers))
			j := r.Intn(len(carriers) - 1)
			if j >= i {
				j++
			}
			n1, n2 := carriers[i], carriers[j]
			v1, has1 := a.Lookup(n1, class)
			v2, has2 := a.Lookup(n2, class)
			if has1 || has2 { // swapping two defaults is a no-op
				a.Restore(n1, class, v2, has2)
				a.Restore(n2, class, v1, has1)
				return fmt.Sprintf("swap %s %s↔%s", class, nodes[n1].Name, nodes[n2].Name)
			}
		}
	}
	// upgrade (case 0 and every fallback)
	opt := ms.p.Options[r.Intn(len(ms.p.Options))]
	opt.Apply(a)
	return fmt.Sprintf("set %s:%s=%s", nodes[opt.Node].Name, opt.Class, opt.Variant)
}

// repair makes a candidate feasible again after crossover/mutation:
// while over budget it drops a uniformly chosen overlay decision — or,
// with the same per-item probability, the rotation schedule (whose
// planned cost competes with placements for the same budget) — and then
// drops entries from oversized (zone, class) groups until the
// MaxPerZone constraint holds. The base configuration is zone-feasible
// by problem validation, so both loops terminate.
func (ms *moveSpace) repair(c *Candidate, ev *Evaluator, r *rng.Rand) {
	for !ms.p.withinBudget(ev.Cost(*c)) {
		entries := c.A.Entries()
		n := len(entries)
		if c.Rot >= 0 {
			n++ // the schedule is one more droppable item
		}
		if n == 0 {
			return
		}
		pick := r.Intn(n)
		if pick == len(entries) {
			c.Rot = -1
			continue
		}
		c.A.Unset(entries[pick].Node, entries[pick].Class)
	}
	if ms.p.MaxPerZone <= 0 {
		return
	}
	for {
		ev.zoneBuf = zoneViolations(ms.p, c.A, ev.zoneBuf)
		viol := ev.zoneBuf
		if len(viol) == 0 {
			return
		}
		e := viol[r.Intn(len(viol))]
		c.A.Unset(e.Node, e.Class)
	}
}

// fill appends random feasible candidates to members until it holds n:
// each is a burst of random options over the base placement, paired
// with a uniformly drawn schedule (including "static") when the problem
// has a rotation dimension, then repaired back under the constraints.
func (ms *moveSpace) fill(members []Candidate, n int, ev *Evaluator, r *rng.Rand) []Candidate {
	p := ms.p
	for len(members) < n {
		c := Candidate{A: p.base(), Rot: -1}
		k := 1 + r.Intn(max(1, len(p.Options)/3))
		for j := 0; j < k; j++ {
			p.Options[r.Intn(len(p.Options))].Apply(c.A)
		}
		if len(p.Rotations) > 0 {
			c.Rot = r.Intn(len(p.Rotations)+1) - 1
		}
		ms.repair(&c, ev, r)
		members = append(members, c)
	}
	return members
}

// breed appends offspring to next until it holds n: two parents from
// pick, uniform crossover, one mutation with probability mutProb, and
// repair back under the constraints.
func (ms *moveSpace) breed(next []Candidate, n int, mutProb float64, pick func() Candidate, ev *Evaluator, r *rng.Rand) []Candidate {
	for len(next) < n {
		p1, p2 := pick(), pick()
		child := crossover(p1, p2, r)
		if r.Bool(mutProb) {
			ms.mutate(&child, r)
		}
		ms.repair(&child, ev, r)
		next = append(next, child)
	}
	return next
}

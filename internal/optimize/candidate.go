package optimize

import (
	"slices"

	"diversify/internal/digest"
	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/topology"
)

// Candidate is one point of the search space: a placement overlay paired
// with a rotation schedule. Rot indexes Problem.Rotations (-1 = static
// deployment). PR 1–4 searched placements only; threading the schedule
// through every strategy is what lets the optimizer trade static
// hardening against moving-target rotation under one budget.
type Candidate struct {
	A *diversity.Assignment
	// Rot selects the rotation schedule (index into Problem.Rotations,
	// -1 = none).
	Rot int
}

// Clone deep-copies the placement; the schedule index is a value.
func (c Candidate) Clone() Candidate { return Candidate{A: c.A.Clone(), Rot: c.Rot} }

// fingerprint digests the candidate: the assignment fingerprint mixed
// asymmetrically with the schedule fingerprint, so the same placement
// under two schedules caches — and archives — as two candidates.
func (c Candidate) fingerprint(rotFPs []uint64) uint64 {
	fp := c.A.Fingerprint()
	if c.Rot >= 0 {
		fp = fp*digest.Prime ^ rotFPs[c.Rot]
	}
	return fp
}

// zoneClass keys the per-zone distinct-variant census.
type zoneClass struct {
	zone  topology.Zone
	class exploits.Class
}

// zoneFeasible checks the MaxPerZone constraint: within every topology
// zone, each component class may run at most MaxPerZone distinct
// effective variants (a fleet-management bound — every extra platform in
// a zone is another image to patch, another spares pool, another
// training track). MaxPerZone <= 0 disables the constraint.
func zoneFeasible(p *Problem, a *diversity.Assignment) bool {
	return len(zoneViolations(p, a, nil)) == 0
}

// zoneViolations returns the overlay entries sitting in a (zone, class)
// group that exceeds MaxPerZone, appending to buf (callers reuse it).
// An empty result means the assignment satisfies the constraint. Only
// overlay entries are reported — the repair operators can only drop
// those — so callers must ensure the BASE configuration is feasible
// (Problem.validate does).
func zoneViolations(p *Problem, a *diversity.Assignment, buf []diversity.Entry) []diversity.Entry {
	out := buf[:0]
	if p.MaxPerZone <= 0 {
		return out
	}
	nodes := p.Topo.Nodes()
	groups := map[zoneClass][]exploits.VariantID{} // distinct effective variants
	a.Each(p.Topo, func(n topology.NodeID, c exploits.Class, _, v exploits.VariantID) {
		key := zoneClass{zone: nodes[n].Zone, class: c}
		if vs := groups[key]; !slices.Contains(vs, v) {
			groups[key] = append(vs, v)
		}
	})
	if a != nil {
		for _, e := range a.Entries() {
			if len(groups[zoneClass{zone: nodes[e.Node].Zone, class: e.Class}]) > p.MaxPerZone {
				out = append(out, e)
			}
		}
	}
	if len(out) == 0 {
		// The overlay contributes no entry to an oversized group, but the
		// base itself may violate (validated against at problem setup).
		// Sentinel: infeasible but nothing droppable. Callers treat any
		// non-empty result as a violation.
		for _, vs := range groups {
			if len(vs) > p.MaxPerZone {
				return append(out, diversity.Entry{})
			}
		}
	}
	return out
}

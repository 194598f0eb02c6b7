package optimize

import (
	"cmp"
	"slices"

	"diversify/internal/diversity"
	"diversify/internal/malware"
)

// Option screening keeps grid-scale greedy search tractable: instead of
// simulating every affordable option each round (|options| campaigns ×
// reps), the options are ranked once by a cheap structural surrogate
// and only the top K are simulated per round. The surrogate needs no
// replications — it multiplies the node's path centrality between the
// threat's entry points and its targets (the same articulation/on-path
// machinery the strategic placement policy uses) by the resilience gain
// of the switch, so options that harden choke points with genuinely
// stronger variants rank first.

// defaultScreenFloor and defaultScreenDivisor shape the default K:
// option spaces up to 2×floor are searched exhaustively; larger ones
// are screened to a quarter (never below the floor), which keeps the
// simulated set at most half of the space.
const (
	defaultScreenFloor   = 24
	defaultScreenDivisor = 4
)

// screenTop resolves the per-round simulation bound from ScreenTop.
func (p *Problem) screenTop() int {
	switch {
	case p.ScreenTop < 0:
		return len(p.Options)
	case p.ScreenTop > 0:
		return p.ScreenTop
	}
	if len(p.Options) <= 2*defaultScreenFloor {
		return len(p.Options)
	}
	k := len(p.Options) / defaultScreenDivisor
	if k < defaultScreenFloor {
		k = defaultScreenFloor
	}
	return k
}

// screenScores computes the surrogate score of every option:
//
//	score = criticality × resilienceGain
//
// where criticality is the shared structural surrogate
// (malware.CriticalityScores: on-path centrality between the threat's
// entries and targets, articulation and target bonuses) and
// resilienceGain is the catalog resilience delta of the switch over the
// node's default (non-upgrades rank at or below zero). Purely
// structural — no simulation — and deterministic for a given problem.
func screenScores(p *Problem) []float64 {
	crit := malware.CriticalityScores(p.Topo, p.Profile)
	scores := make([]float64, len(p.Options))
	for i, opt := range p.Options {
		scores[i] = crit[opt.Node] * p.resilienceGain(opt)
	}
	return scores
}

// resilienceGain is the catalog resilience of opt's variant minus that
// of the node's default for the class; 0 when the node has no such
// component or either variant is unknown to the catalog.
func (p *Problem) resilienceGain(opt diversity.Option) float64 {
	def, ok := p.Topo.Nodes()[opt.Node].Component(opt.Class)
	if !ok {
		return 0
	}
	dv, okD := p.Catalog.Variant(def)
	nv, okN := p.Catalog.Variant(opt.Variant)
	if !okD || !okN {
		return 0
	}
	return nv.Resilience - dv.Resilience
}

// screenOrder returns the option indices greedy may simulate, ranked by
// surrogate score descending (ties by index) and truncated to the top
// K, then restored to ascending index order — so the screened scan
// visits survivors exactly as the unscreened scan would and tie-breaks
// identically.
func screenOrder(p *Problem) []int {
	k := p.screenTop()
	idx := make([]int, len(p.Options))
	for i := range idx {
		idx[i] = i
	}
	if k >= len(idx) {
		return idx
	}
	scores := screenScores(p)
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	idx = idx[:k]
	slices.Sort(idx)
	return idx
}

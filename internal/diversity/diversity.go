// Package diversity models the design lever under study: assignments of
// component variants to nodes, diversity metrics over those assignments,
// a procurement/training cost model, and the placement strategies the
// paper's case study compares (the claim that "a small, strategically
// distributed, number of highly attack-resilient components can
// significantly lower the chance of bringing a successful attack").
package diversity

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"diversify/internal/exploits"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// ErrBadAssignment reports an invalid assignment operation.
var ErrBadAssignment = errors.New("diversity: invalid assignment")

// Assignment maps (node, class) to the variant installed there. It
// overlays a topology's defaults: pairs absent from the overlay keep
// their built-in components. The overlay is one slice of entries kept
// in canonical (node, class) order, at most one per pair: Set, Lookup
// and Unset binary-search it, Clone copies it, Entries and Fingerprint
// read it without sorting, and Each walks it alongside the plant.
type Assignment struct {
	entries []Entry
}

// NewAssignment returns an empty overlay.
func NewAssignment() *Assignment { return &Assignment{} }

// compareSlots orders entries by (node, class), the overlay's key.
func compareSlots(a, b Entry) int {
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	return cmp.Compare(a.Class, b.Class)
}

// find binary-searches the overlay for (node, class): it returns where
// the pair sits, or would be inserted, and whether an entry is there.
// The comparison is inline: slices.BinarySearchFunc with a compare
// callback made Lookup, which every campaign attempt calls, about 2.5×
// slower than the nested maps this slice replaced.
func (a *Assignment) find(n topology.NodeID, c exploits.Class) (int, bool) {
	lo, hi := 0, len(a.entries)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e := &a.entries[h]; e.Node < n || e.Node == n && e.Class < c {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(a.entries) && a.entries[lo].Node == n && a.entries[lo].Class == c
}

// Set installs a variant for a node's component class.
func (a *Assignment) Set(n topology.NodeID, c exploits.Class, v exploits.VariantID) *Assignment {
	if i, ok := a.find(n, c); ok {
		a.entries[i].Variant = v
	} else {
		a.entries = slices.Insert(a.entries, i, Entry{Node: n, Class: c, Variant: v})
	}
	return a
}

// SetClassEverywhere installs a variant for a class on every node of the
// topology that carries that class by default.
func (a *Assignment) SetClassEverywhere(t *topology.Topology, c exploits.Class, v exploits.VariantID) *Assignment {
	for _, id := range eligible(t, c, nil) {
		a.Set(id, c, v)
	}
	return a
}

// Lookup resolves the assignment for (node, class); ok is false when the
// overlay has no entry (callers fall back to topology defaults).
func (a *Assignment) Lookup(n topology.NodeID, c exploits.Class) (exploits.VariantID, bool) {
	if i, ok := a.find(n, c); ok {
		return a.entries[i].Variant, true
	}
	return "", false
}

// Unset removes the overlay decision for (node, class), restoring the
// topology default there. Unsetting an absent entry is a no-op.
func (a *Assignment) Unset(n topology.NodeID, c exploits.Class) {
	if i, ok := a.find(n, c); ok {
		a.entries = slices.Delete(a.entries, i, i+1)
	}
}

// Restore puts back a Lookup result for (node, class): it sets v when ok
// and unsets the pair otherwise, undoing whatever changed it since.
func (a *Assignment) Restore(n topology.NodeID, c exploits.Class, v exploits.VariantID, ok bool) {
	if ok {
		a.Set(n, c, v)
	} else {
		a.Unset(n, c)
	}
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{entries: slices.Clone(a.entries)}
}

// CopyFrom makes a a deep copy of src (nil = the empty overlay), reusing
// a's storage.
func (a *Assignment) CopyFrom(src *Assignment) {
	a.entries = a.entries[:0]
	if src != nil {
		a.entries = append(a.entries, src.entries...)
	}
}

// Diff visits, in canonical (node, class) order, every pair where the
// overlays of a and b differ: one has an entry the other lacks, or the
// two name different variants. Every pair it does not visit resolves to
// the same variant under both (an entry naming the node's default still
// counts as a difference from no entry, so Diff may visit pairs that
// resolve alike, never the reverse). It advances through the two sorted
// overlays together, so it looks nothing up and allocates nothing. A nil
// assignment is the empty overlay.
func Diff(a, b *Assignment, visit func(n topology.NodeID, c exploits.Class)) {
	var x, y []Entry
	if a != nil {
		x = a.entries
	}
	if b != nil {
		y = b.entries
	}
	for len(x) > 0 || len(y) > 0 {
		switch {
		case len(y) == 0 || len(x) > 0 && compareSlots(x[0], y[0]) < 0:
			visit(x[0].Node, x[0].Class)
			x = x[1:]
		case len(x) == 0 || compareSlots(x[0], y[0]) > 0:
			visit(y[0].Node, y[0].Class)
			y = y[1:]
		default:
			if x[0].Variant != y[0].Variant {
				visit(x[0].Node, x[0].Class)
			}
			x, y = x[1:], y[1:]
		}
	}
}

// Len returns the number of explicit (node, class) overlay decisions.
func (a *Assignment) Len() int { return len(a.entries) }

// Entries returns a copy of the overlay decisions in canonical (node,
// class) order.
func (a *Assignment) Entries() []Entry { return slices.Clone(a.entries) }

// Each visits every class each node of t carries, nodes in ID order and
// classes ascending within a node, with the node's default variant def
// and the variant v it runs under the overlay (the overlay's decision
// where there is one, else def). It advances through the plant and the
// sorted overlay together, so it looks nothing up. Overlay entries on
// classes a node does not carry are not visited. A nil assignment visits
// the topology defaults.
func (a *Assignment) Each(t *topology.Topology, visit func(n topology.NodeID, c exploits.Class, def, v exploits.VariantID)) {
	var overlay []Entry
	if a != nil {
		overlay = a.entries
	}
	for _, n := range t.Nodes() {
		for _, d := range n.Components {
			slot := Entry{Node: n.ID, Class: d.Class}
			for len(overlay) > 0 && compareSlots(overlay[0], slot) < 0 {
				overlay = overlay[1:]
			}
			v := d.Variant
			if len(overlay) > 0 && compareSlots(overlay[0], slot) == 0 {
				v = overlay[0].Variant
			}
			visit(n.ID, d.Class, d.Variant, v)
		}
	}
}

// Func adapts the assignment to the callback shape the malware campaign
// consumes.
func (a *Assignment) Func() func(n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
	return func(n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
		return a.Lookup(n.ID, c)
	}
}

// EffectiveVariant resolves the variant a node runs for a class under the
// overlay, falling back to the node's defaults.
func EffectiveVariant(a *Assignment, n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
	if a != nil {
		if v, ok := a.Lookup(n.ID, c); ok {
			return v, true
		}
	}
	return n.Component(c)
}

// CostModel prices a diversity configuration: each distinct variant
// beyond the first per class costs a platform adoption fee, and every
// node running a non-default variant costs a per-node migration fee.
type CostModel struct {
	PlatformCost float64 // per extra distinct variant per class
	NodeCost     float64 // per node deviating from the topology default
}

// Cost evaluates the model over the classes present in the topology.
// The platform terms are summed first, class by class in the order
// classes first appear in a node-ID walk of the plant, and NodeCost is
// then added once per (node, class) the overlay moves off its default.
//
// It prices the overlay, not the plant: the topology's sealed
// DefaultTally gives each class's default variants with their node
// counts, and only the overlay's entries are walked. An entry on a class
// its node does not carry, or naming the node's default, changes
// nothing. Any other entry is one deviation: it takes one node from its
// default's count and adds its variant to the class. A class's distinct
// variants are then its defaults some node still runs plus the distinct
// overridden variants that are not among them, the same sets a walk of
// the whole plant finds, summed in the same order, so every result is
// bit-identical to that walk. Cost allocates nothing for a plant of up
// to 64 (class, default) pairs and an overlay of up to 16 distinct
// (class, overridden variant) pairs.
//
//diversify:hotpath every scored candidate is priced; only a plant or overlay past the stack buffers may allocate
func (cm CostModel) Cost(t *topology.Topology, a *Assignment) float64 {
	var entries []Entry
	if a != nil {
		entries = a.entries
	}
	tally := t.DefaultTally()
	nodes := t.Nodes()
	// moved[k] counts the deviations away from tally[k]'s default.
	var movedBuf [64]int32
	moved := movedBuf[:]
	if len(tally) > len(moved) {
		moved = make([]int32, len(tally))
	}
	// overrides lists the distinct (class, variant) pairs the deviating
	// entries install.
	var overridesBuf [16]Entry
	overrides := overridesBuf[:0]
	deviations := 0
	for i := range entries {
		e := &entries[i]
		if e.Node < 0 || int(e.Node) >= len(nodes) {
			continue
		}
		def, ok := nodes[e.Node].Component(e.Class)
		if !ok || e.Variant == def {
			continue
		}
		deviations++
		for k := range tally {
			if tally[k].Class == e.Class && tally[k].Variant == def {
				moved[k]++
				break
			}
		}
		o := Entry{Class: e.Class, Variant: e.Variant}
		if !slices.Contains(overrides, o) {
			overrides = append(overrides, o)
		}
	}
	total := 0.0
	for lo := 0; lo < len(tally); {
		class := tally[lo].Class
		hi := lo
		distinct := 0
		for hi < len(tally) && tally[hi].Class == class {
			if moved[hi] < int32(tally[hi].Nodes) {
				distinct++
			}
			hi++
		}
		for _, o := range overrides {
			if o.Class == class && !runsDefault(tally[lo:hi], moved[lo:hi], o.Variant) {
				distinct++
			}
		}
		if distinct > 1 {
			total += float64(distinct-1) * cm.PlatformCost
		}
		lo = hi
	}
	for range deviations {
		total += cm.NodeCost
	}
	return total
}

// runsDefault reports whether some node still runs v as its default,
// given one class's tally and the deviations moved away from each.
func runsDefault(tally []topology.DefaultCount, moved []int32, v exploits.VariantID) bool {
	for k := range tally {
		if tally[k].Variant == v {
			return moved[k] < int32(tally[k].Nodes)
		}
	}
	return false
}

// Placement strategies for hardened ("highly attack-resilient")
// components, compared by experiment E7. Every strategy takes an
// eligibility predicate (nil = every node carrying the class); the case
// study uses it to restrict placement to the monitoring-and-control
// system proper (hardening the attacker's entry PC is not a defense the
// paper considers).

// eligible lists, in ID order, the nodes carrying the class that pass
// the filter.
func eligible(t *topology.Topology, c exploits.Class, filter func(topology.Node) bool) []topology.NodeID {
	var out []topology.NodeID
	for _, n := range t.Nodes() {
		if _, has := n.Component(c); !has {
			continue
		}
		if filter != nil && !filter(n) {
			continue
		}
		out = append(out, n.ID)
	}
	return out
}

// harden installs the resilient variant on every chosen node and returns
// the chosen IDs sorted.
func harden(a *Assignment, c exploits.Class, resilient exploits.VariantID, chosen []topology.NodeID) []topology.NodeID {
	for _, id := range chosen {
		a.Set(id, c, resilient)
	}
	slices.Sort(chosen)
	return chosen
}

// PlaceRandom hardens k random eligible nodes carrying the class,
// assigning the resilient variant. Returns the chosen node IDs.
func PlaceRandom(t *topology.Topology, a *Assignment, c exploits.Class,
	resilient exploits.VariantID, k int, r *rng.Rand, filter func(topology.Node) bool) []topology.NodeID {
	ids := eligible(t, c, filter)
	k = min(k, len(ids))
	perm := r.Perm(len(ids))
	chosen := make([]topology.NodeID, k)
	for i := range chosen {
		chosen[i] = ids[perm[i]]
	}
	return harden(a, c, resilient, chosen)
}

// PlaceStrategic hardens the k most path-central eligible nodes carrying
// the class: articulation points first (every attack path through them),
// then by on-path score between entry nodes and targets. This is the
// paper's "strategically distributed" policy made concrete.
func PlaceStrategic(t *topology.Topology, a *Assignment, c exploits.Class,
	resilient exploits.VariantID, k int, entries, targets []topology.NodeID,
	filter func(topology.Node) bool) []topology.NodeID {
	return placeRanked(t, a, c, resilient, k, entries, targets, filter, true)
}

// PlaceWorst hardens the k least path-central eligible nodes (leaf-most).
// The anti-strategy used as the E7 lower baseline.
func PlaceWorst(t *topology.Topology, a *Assignment, c exploits.Class,
	resilient exploits.VariantID, k int, entries, targets []topology.NodeID,
	filter func(topology.Node) bool) []topology.NodeID {
	return placeRanked(t, a, c, resilient, k, entries, targets, filter, false)
}

// placeRanked ranks the eligible nodes by path centrality (on-path score
// between entries and targets, plus 1000 for an articulation point) and
// hardens the first k: the most central when mostCentral is set, else
// the least. Ties go to the lower node ID either way.
func placeRanked(t *topology.Topology, a *Assignment, c exploits.Class,
	resilient exploits.VariantID, k int, entries, targets []topology.NodeID,
	filter func(topology.Node) bool, mostCentral bool) []topology.NodeID {
	type scored struct {
		id    topology.NodeID
		score float64
	}
	cuts := map[topology.NodeID]bool{}
	for _, id := range t.ArticulationPoints() {
		cuts[id] = true
	}
	pathScores := t.OnPathScores(entries, targets)
	ids := eligible(t, c, filter)
	candidates := make([]scored, len(ids))
	for i, id := range ids {
		s := float64(pathScores[id])
		if cuts[id] {
			s += 1000 // articulation points dominate
		}
		candidates[i] = scored{id: id, score: s}
	}
	slices.SortFunc(candidates, func(x, y scored) int {
		c := cmp.Compare(x.score, y.score)
		if mostCentral {
			c = -c
		}
		if c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})
	chosen := make([]topology.NodeID, min(k, len(candidates)))
	for i := range chosen {
		chosen[i] = candidates[i].id
	}
	return harden(a, c, resilient, chosen)
}

// SpreadVariants distributes up to k distinct variants of a class
// round-robin across the nodes carrying it (the "k OS variants" knob of
// experiments E2/E4). It returns an error when the catalog offers fewer
// than k variants of the class.
func SpreadVariants(t *topology.Topology, a *Assignment, cat *exploits.Catalog,
	c exploits.Class, k int) error {
	if k <= 0 {
		return fmt.Errorf("%w: k = %d", ErrBadAssignment, k)
	}
	variants := cat.VariantsOf(c)
	if len(variants) < k {
		return fmt.Errorf("%w: catalog has %d variants of %v, need %d",
			ErrBadAssignment, len(variants), c, k)
	}
	// Prefer the least resilient k variants so the effect measured is
	// diversity itself, not hardening: sort by resilience ascending, then
	// ID for determinism.
	slices.SortFunc(variants, func(a, b exploits.Variant) int {
		if c := cmp.Compare(a.Resilience, b.Resilience); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for i, id := range eligible(t, c, nil) {
		a.Set(id, c, variants[i%k].ID)
	}
	return nil
}

package diversity

import (
	"cmp"
	"slices"

	"diversify/internal/digest"
	"diversify/internal/exploits"
	"diversify/internal/topology"
)

// Entry is one explicit overlay decision: node n runs variant v for
// component class c.
type Entry struct {
	Node    topology.NodeID
	Class   exploits.Class
	Variant exploits.VariantID
}

// compareEntries orders entries by (node, class, variant), the order
// EnumerateOptions returns.
func compareEntries(a, b Entry) int {
	if c := compareSlots(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.Variant, b.Variant)
}

// Fingerprint returns a deterministic 64-bit digest of the overlay (an
// FNV-1a hash over the entries in their canonical order). Two
// assignments with identical decisions share a fingerprint regardless of
// insertion order, which is what lets the optimizer's evaluation cache
// recognize a candidate it has already simulated.
func (a *Assignment) Fingerprint() uint64 {
	h := digest.New()
	for _, e := range a.entries {
		h.U64(uint64(e.Node))
		h.Byte(byte(e.Class))
		h.Raw(string(e.Variant))
		h.Byte(0xFF) // entry separator (variant IDs never contain 0xFF)
	}
	return h.Sum()
}

// Option is one feasible diversification action the optimizer may take:
// install Variant for Class on Node (replacing the topology default or a
// previous overlay decision there).
type Option struct {
	Node    topology.NodeID
	Class   exploits.Class
	Variant exploits.VariantID
}

// Apply installs the option on an assignment.
func (o Option) Apply(a *Assignment) { a.Set(o.Node, o.Class, o.Variant) }

// EnumerateOptions lists every feasible (node, class, variant) switch: for
// each node carrying one of the requested classes (and passing the
// optional filter), every catalog variant of that class other than the
// node's default. The result is sorted by (node, class, variant) so the
// search space ordering — and therefore every seeded search over it — is
// deterministic.
func EnumerateOptions(t *topology.Topology, cat *exploits.Catalog,
	classes []exploits.Class, filter func(topology.Node) bool) []Option {
	var out []Option
	for _, n := range t.Nodes() {
		if filter != nil && !filter(n) {
			continue
		}
		for _, c := range classes {
			def, has := n.Component(c)
			if !has {
				continue
			}
			for _, v := range cat.VariantsOf(c) {
				if v.ID == def {
					continue
				}
				out = append(out, Option{Node: n.ID, Class: c, Variant: v.ID})
			}
		}
	}
	slices.SortFunc(out, func(a, b Option) int {
		return compareEntries(Entry(a), Entry(b))
	})
	return out
}

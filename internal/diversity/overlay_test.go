package diversity

import (
	"fmt"
	"slices"
	"testing"

	"diversify/internal/digest"
	"diversify/internal/exploits"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// refAssignment is the map-based overlay the sorted slice replaced, kept
// as the oracle: every query recomputes its answer from the nested maps
// and sorts on read.
type refAssignment map[topology.NodeID]map[exploits.Class]exploits.VariantID

func (r refAssignment) set(n topology.NodeID, c exploits.Class, v exploits.VariantID) {
	if r[n] == nil {
		r[n] = map[exploits.Class]exploits.VariantID{}
	}
	r[n][c] = v
}

func (r refAssignment) unset(n topology.NodeID, c exploits.Class) {
	delete(r[n], c)
	if len(r[n]) == 0 {
		delete(r, n)
	}
}

func (r refAssignment) clone() refAssignment {
	out := refAssignment{}
	for n, m := range r {
		for c, v := range m {
			out.set(n, c, v)
		}
	}
	return out
}

func (r refAssignment) lookup(n topology.NodeID, c exploits.Class) (exploits.VariantID, bool) {
	v, ok := r[n][c]
	return v, ok
}

func (r refAssignment) entries() []Entry {
	var out []Entry
	for n, m := range r {
		for c, v := range m {
			out = append(out, Entry{Node: n, Class: c, Variant: v})
		}
	}
	slices.SortFunc(out, compareEntries)
	return out
}

func (r refAssignment) fingerprint() uint64 {
	h := digest.New()
	for _, e := range r.entries() {
		h.U64(uint64(e.Node))
		h.Byte(byte(e.Class))
		h.Raw(string(e.Variant))
		h.Byte(0xFF)
	}
	return h.Sum()
}

func (r refAssignment) effective(n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
	if v, ok := r.lookup(n.ID, c); ok {
		return v, true
	}
	return n.Component(c)
}

// refProfile is the per-class census over every node, as Cost computed
// it before the walk.
func (r refAssignment) refProfile(t *topology.Topology, c exploits.Class) map[exploits.VariantID]int {
	counts := map[exploits.VariantID]int{}
	for _, n := range t.Nodes() {
		if v, ok := r.effective(n, c); ok {
			counts[v]++
		}
	}
	return counts
}

// refCost is the pre-walk Cost formula: a class pre-pass, one profile
// per class, then a deviation pass.
func (r refAssignment) refCost(cm CostModel, t *topology.Topology) float64 {
	classes := map[exploits.Class]bool{}
	for _, n := range t.Nodes() {
		for _, comp := range n.Components {
			classes[comp.Class] = true
		}
	}
	total := 0.0
	for c := range classes {
		if d := len(r.refProfile(t, c)); d > 1 {
			total += float64(d-1) * cm.PlatformCost
		}
	}
	for _, n := range t.Nodes() {
		for _, comp := range n.Components {
			if v, ok := r.lookup(n.ID, comp.Class); ok && v != comp.Variant {
				total += cm.NodeCost
			}
		}
	}
	return total
}

// oracleTopologies are the plants the overlay oracle runs on.
func oracleTopologies() map[string]*topology.Topology {
	return map[string]*topology.Topology{
		"tiered":    topology.NewTieredSCADA(topology.DefaultTieredSpec()),
		"powergrid": topology.NewPowerGrid(topology.DefaultPowerGridSpec()),
		"grid:60":   topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(60)),
	}
}

// carriedSlots lists every (node, class) the plant carries, with the
// candidate variants for it: the catalog's variants of the class plus
// the node's default.
func carriedSlots(t *topology.Topology, cat *exploits.Catalog) ([]Entry, map[exploits.Class][]exploits.VariantID) {
	var slots []Entry
	variants := map[exploits.Class][]exploits.VariantID{}
	for _, n := range t.Nodes() {
		for _, comp := range n.Components {
			c, def := comp.Class, comp.Variant
			slots = append(slots, Entry{Node: n.ID, Class: c})
			if !slices.Contains(variants[c], def) {
				variants[c] = append(variants[c], def)
			}
		}
	}
	for c := range variants {
		for _, v := range cat.VariantsOf(c) {
			if !slices.Contains(variants[c], v.ID) {
				variants[c] = append(variants[c], v.ID)
			}
		}
		slices.Sort(variants[c])
	}
	slices.SortFunc(slots, compareSlots)
	return slots, variants
}

// checkAgainstRef compares every query of the overlay with the oracle.
func checkAgainstRef(t *testing.T, topo *topology.Topology, a *Assignment, ref refAssignment,
	slots []Entry, cm CostModel) {
	t.Helper()
	if a.Len() != len(ref.entries()) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(ref.entries()))
	}
	if got, want := a.Entries(), ref.entries(); !slices.Equal(got, want) {
		t.Fatalf("Entries = %v, want %v", got, want)
	}
	if got, want := a.Fingerprint(), ref.fingerprint(); got != want {
		t.Fatalf("Fingerprint = %#x, want %#x", got, want)
	}
	for _, s := range slots {
		gv, gok := a.Lookup(s.Node, s.Class)
		wv, wok := ref.lookup(s.Node, s.Class)
		if gv != wv || gok != wok {
			t.Fatalf("Lookup(%d, %v) = %q %v, want %q %v", s.Node, s.Class, gv, gok, wv, wok)
		}
	}
	if got, want := cm.Cost(topo, a), ref.refCost(cm, topo); got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
	nodes := topo.Nodes()
	var visited []Entry
	a.Each(topo, func(n topology.NodeID, c exploits.Class, def, v exploits.VariantID) {
		if want, _ := nodes[n].Component(c); def != want {
			t.Fatalf("Each default for (%d, %v) = %q, want %q", n, c, def, want)
		}
		visited = append(visited, Entry{Node: n, Class: c, Variant: v})
	})
	if len(visited) != len(slots) {
		t.Fatalf("Each visited %d slots, want %d", len(visited), len(slots))
	}
	for i, s := range slots {
		want, _ := ref.effective(nodes[s.Node], s.Class)
		if visited[i] != (Entry{Node: s.Node, Class: s.Class, Variant: want}) {
			t.Fatalf("Each visit %d = %v, want %v", i, visited[i], Entry{Node: s.Node, Class: s.Class, Variant: want})
		}
	}
}

// The sorted overlay must answer Lookup, Len, Entries, Fingerprint, Each
// and Cost exactly as the map-based oracle does, under random
// Set/Unset/Clone sequences on carried classes. Prices are integers, so
// Cost must agree bit for bit whatever order either side sums in.
func TestOverlayMatchesMapOracle(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	for name, topo := range oracleTopologies() {
		slots, variants := carriedSlots(topo, cat)
		classes := make([]exploits.Class, 0, len(variants))
		for c := range variants {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				r := rng.New(seed)
				cm := CostModel{PlatformCost: float64(1 + r.Intn(100)), NodeCost: float64(1 + r.Intn(20))}
				a, ref := NewAssignment(), refAssignment{}
				for step := 0; step < 400; step++ {
					s := slots[r.Intn(len(slots))]
					switch op := r.Intn(10); {
					case op < 6:
						vs := variants[s.Class]
						v := vs[r.Intn(len(vs))]
						a.Set(s.Node, s.Class, v)
						ref.set(s.Node, s.Class, v)
					case op < 9:
						a.Unset(s.Node, s.Class)
						ref.unset(s.Node, s.Class)
					default:
						prev, prevRef := a, ref.clone()
						a, ref = a.Clone(), ref.clone()
						a.Set(s.Node, s.Class, variants[s.Class][0])
						ref.set(s.Node, s.Class, variants[s.Class][0])
						if !slices.Equal(prev.Entries(), prevRef.entries()) {
							t.Fatal("Clone shares state with its source")
						}
					}
					if step%20 == 0 || step == 399 {
						checkAgainstRef(t, topo, a, ref, slots, cm)
					}
				}
			})
		}
	}
}

// A nil assignment walks the topology defaults and costs nothing.
func TestEachNilVisitsDefaults(t *testing.T) {
	topo := testTopo()
	var a *Assignment
	n := 0
	a.Each(topo, func(id topology.NodeID, c exploits.Class, def, v exploits.VariantID) {
		if def != v {
			t.Fatalf("nil overlay changed (%d, %v): %q → %q", id, c, def, v)
		}
		n++
	})
	want := 0
	for _, node := range topo.Nodes() {
		want += len(node.Components)
	}
	if n != want {
		t.Fatalf("visited %d slots, want %d", n, want)
	}
	if got := (CostModel{PlatformCost: 3, NodeCost: 1}).Cost(topo, nil); got != 0 {
		t.Fatalf("nil cost = %v", got)
	}
}

// An overlay entry on a class the node does not carry is not part of the
// plant: it moves neither the class profile nor the cost.
func TestUncarriedEntryMovesNeitherProfileNorCost(t *testing.T) {
	topo := testTopo()
	plc := topo.NodesOfKind(topology.KindPLC)[0]
	node, err := topo.Node(plc)
	if err != nil {
		t.Fatal(err)
	}
	if _, carries := node.Component(exploits.ClassOS); carries {
		t.Fatal("test premise: PLCs carry no OS")
	}
	cm := CostModel{PlatformCost: 100, NodeCost: 10}
	a := NewAssignment()
	walk := func() []Entry {
		var out []Entry
		a.Each(topo, func(id topology.NodeID, c exploits.Class, _, v exploits.VariantID) {
			out = append(out, Entry{Node: id, Class: c, Variant: v})
		})
		return out
	}
	before, beforeCost := walk(), cm.Cost(topo, a)
	a.Set(plc, exploits.ClassOS, exploits.OSHardened)
	after, afterCost := walk(), cm.Cost(topo, a)
	if !slices.Equal(after, before) {
		t.Fatalf("profile moved: the walk visits %d slots, was %d", len(after), len(before))
	}
	if afterCost != beforeCost {
		t.Fatalf("cost moved: %v → %v", beforeCost, afterCost)
	}
}

// Restore puts back exactly what Lookup reported, entry or absence.
func TestRestoreUndoesLookup(t *testing.T) {
	a := NewAssignment().Set(2, exploits.ClassOS, exploits.OSWin7)
	fp := a.Fingerprint()
	for _, id := range []topology.NodeID{2, 4} {
		prev, had := a.Lookup(id, exploits.ClassOS)
		a.Set(id, exploits.ClassOS, exploits.OSHardened)
		a.Restore(id, exploits.ClassOS, prev, had)
		if a.Fingerprint() != fp || a.Len() != 1 {
			t.Fatalf("node %d: restore left %v", id, a.Entries())
		}
	}
}

// Diff must visit exactly the pairs whose Lookup answers differ, entry
// or absence, in canonical order, for random pairs of overlays that
// share most entries, nil overlays included; CopyFrom must reproduce
// its source without sharing storage.
func TestDiffMatchesLookupOracle(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	for name, topo := range oracleTopologies() {
		slots, variants := carriedSlots(topo, cat)
		t.Run(name, func(t *testing.T) {
			r := rng.New(3)
			random := func(base *Assignment, k int) *Assignment {
				a := NewAssignment()
				a.CopyFrom(base)
				for range k {
					s := slots[r.Intn(len(slots))]
					if r.Intn(3) == 0 {
						a.Unset(s.Node, s.Class)
					} else {
						vs := variants[s.Class]
						a.Set(s.Node, s.Class, vs[r.Intn(len(vs))])
					}
				}
				return a
			}
			for trial := range 200 {
				a := random(nil, r.Intn(40))
				b := random(a, r.Intn(4))
				if trial%10 == 0 {
					a = nil
				}
				oracle := a
				if a == nil {
					oracle = NewAssignment()
				}
				var want []Entry
				for _, s := range slots {
					av, aok := oracle.Lookup(s.Node, s.Class)
					bv, bok := b.Lookup(s.Node, s.Class)
					if av != bv || aok != bok {
						want = append(want, Entry{Node: s.Node, Class: s.Class})
					}
				}
				var got []Entry
				Diff(a, b, func(n topology.NodeID, c exploits.Class) {
					got = append(got, Entry{Node: n, Class: c})
				})
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: Diff visited %v, want %v", trial, got, want)
				}
				var back []Entry
				Diff(b, a, func(n topology.NodeID, c exploits.Class) {
					back = append(back, Entry{Node: n, Class: c})
				})
				if !slices.Equal(back, want) {
					t.Fatalf("trial %d: Diff is not symmetric: %v vs %v", trial, back, want)
				}
				c := NewAssignment().Set(0, exploits.ClassOS, "stale")
				c.CopyFrom(b)
				if c.Fingerprint() != b.Fingerprint() {
					t.Fatalf("trial %d: CopyFrom produced %v, want %v", trial, c.Entries(), b.Entries())
				}
				if b.Len() > 0 {
					c.Set(b.entries[0].Node, b.entries[0].Class, "mutated")
					if b.entries[0].Variant == "mutated" {
						t.Fatalf("trial %d: CopyFrom shares storage with its source", trial)
					}
				}
			}
		})
	}
}

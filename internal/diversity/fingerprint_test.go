package diversity

import (
	"testing"

	"diversify/internal/exploits"
	"diversify/internal/topology"
)

// Fingerprints must be insertion-order independent, distinguish different
// overlays, and survive set/unset round trips.
func TestFingerprint(t *testing.T) {
	a := NewAssignment().
		Set(1, exploits.ClassOS, exploits.OSWin7).
		Set(3, exploits.ClassProtocol, exploits.ProtoModbusDiv)
	b := NewAssignment().
		Set(3, exploits.ClassProtocol, exploits.ProtoModbusDiv).
		Set(1, exploits.ClassOS, exploits.OSWin7)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("insertion order changed the fingerprint")
	}
	if NewAssignment().Fingerprint() == a.Fingerprint() {
		t.Fatal("empty overlay collides with a populated one")
	}
	c := a.Clone()
	c.Set(1, exploits.ClassOS, exploits.OSHardened)
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different variant, same fingerprint")
	}
	c.Set(1, exploits.ClassOS, exploits.OSWin7)
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("restoring the variant did not restore the fingerprint")
	}
	c.Unset(3, exploits.ClassProtocol)
	c.Set(3, exploits.ClassProtocol, exploits.ProtoModbusDiv)
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("unset/set round trip changed the fingerprint")
	}
}

// Entries must come back in canonical order; Unset must drop the
// decision; Len must count decisions.
func TestEntriesUnsetLen(t *testing.T) {
	a := NewAssignment().
		Set(5, exploits.ClassOS, exploits.OSWin7).
		Set(2, exploits.ClassProtocol, exploits.ProtoModbusDiv).
		Set(2, exploits.ClassOS, exploits.OSLinuxHMI)
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	entries := a.Entries()
	want := []Entry{
		{2, exploits.ClassOS, exploits.OSLinuxHMI},
		{2, exploits.ClassProtocol, exploits.ProtoModbusDiv},
		{5, exploits.ClassOS, exploits.OSWin7},
	}
	if len(entries) != len(want) {
		t.Fatalf("entries %v, want %v", entries, want)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entries[%d] = %v, want %v", i, entries[i], want[i])
		}
	}
	a.Unset(2, exploits.ClassOS)
	a.Unset(2, exploits.ClassProtocol)
	a.Unset(2, exploits.ClassProtocol) // double-unset is a no-op
	if a.Len() != 1 {
		t.Fatalf("Len after unset = %d, want 1", a.Len())
	}
	if _, ok := a.Lookup(2, exploits.ClassOS); ok {
		t.Fatal("unset entry still resolves")
	}
}

// EnumerateOptions lists only non-default variants of carried classes,
// honors the filter, and is sorted.
func TestEnumerateOptions(t *testing.T) {
	topo := testTopo()
	cat := exploits.StuxnetCatalog()
	filter := func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC }
	opts := EnumerateOptions(topo, cat, []exploits.Class{exploits.ClassOS}, filter)
	if len(opts) == 0 {
		t.Fatal("no options")
	}
	nOS := len(cat.VariantsOf(exploits.ClassOS))
	nodes := topo.Nodes()
	perNode := map[topology.NodeID]int{}
	for i, o := range opts {
		n := nodes[o.Node]
		if n.Kind == topology.KindCorporatePC {
			t.Fatal("filtered node in option space")
		}
		def, has := n.Component(exploits.ClassOS)
		if !has {
			t.Fatalf("node %s does not carry OS", n.Name)
		}
		if o.Variant == def {
			t.Fatalf("default variant %q offered as an option", def)
		}
		perNode[o.Node]++
		if i > 0 && compareEntries(Entry(opts[i-1]), Entry(o)) >= 0 {
			t.Fatal("options not sorted")
		}
	}
	for id, n := range perNode {
		if n != nOS-1 {
			t.Fatalf("node %d has %d options, want %d", id, n, nOS-1)
		}
	}
}

package topology

import (
	"fmt"
	"strings"
	"testing"

	"diversify/internal/exploits"
)

// Every built-in generator must produce a catalog-consistent topology:
// each (class, variant) pair registered under the right class, every
// firewalled link priced by a Firewall-class variant. This is the check
// that would have caught the historian default being wired to an
// HMI-class variant.
func TestGeneratorsCatalogConsistent(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	topos := map[string]*Topology{
		"tiered":    NewTieredSCADA(DefaultTieredSpec()),
		"powergrid": NewPowerGrid(DefaultPowerGridSpec()),
		"grid:60":   NewMeshedGrid(DefaultMeshedGridSpec(60)),
	}
	for name, topo := range topos {
		if err := topo.ValidateComponents(cat); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The historian slot must carry a Historian-class variant with real
// catalog entries behind it (regression for the DefaultHMI-as-historian
// bug: VariantsOf(ClassHistorian) was empty and the pairing class-
// mismatched).
func TestHistorianVariantClassMatches(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	if len(cat.VariantsOf(exploits.ClassHistorian)) == 0 {
		t.Fatal("catalog has no Historian-class variants")
	}
	topo := NewTieredSCADA(DefaultTieredSpec())
	for _, n := range topo.Nodes() {
		if n.Kind != KindHistorian {
			continue
		}
		id, ok := n.Component(exploits.ClassHistorian)
		if !ok {
			t.Fatalf("historian node %q has no Historian component", n.Name)
		}
		v, ok := cat.Variant(id)
		if !ok || v.Class != exploits.ClassHistorian {
			t.Fatalf("historian node %q runs %q (class %v), want a Historian-class variant", n.Name, id, v.Class)
		}
	}
}

// ValidateComponents must reject class-mismatched and unregistered
// variants.
func TestValidateComponentsRejects(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	mismatch := New()
	mismatch.AddNode("h", KindHistorian, ZoneControl, map[exploits.Class]exploits.VariantID{
		exploits.ClassHistorian: exploits.HMIWinCC, // HMI-class variant in the historian slot
	})
	if err := mismatch.ValidateComponents(cat); err == nil {
		t.Error("want error for class-mismatched variant")
	}
	unknown := New()
	unknown.AddNode("x", KindHMI, ZoneControl, map[exploits.Class]exploits.VariantID{
		exploits.ClassOS: "no-such-os",
	})
	if err := unknown.ValidateComponents(cat); err == nil {
		t.Error("want error for unregistered variant")
	}
	badFW := New()
	a := badFW.AddNode("a", KindHMI, ZoneControl, nil)
	b := badFW.AddNode("b", KindHistorian, ZoneControl, nil)
	badFW.Connect(a, b, MediumLAN, exploits.OSWin7) // OS variant as a firewall
	if err := badFW.ValidateComponents(cat); err == nil {
		t.Error("want error for non-Firewall link variant")
	}
}

// The meshed-grid generator must be a pure function of (spec, seed):
// identical inputs give byte-identical topologies (same fingerprint),
// and the sprinkle seed actually matters.
func TestMeshedGridDeterministic(t *testing.T) {
	spec := DefaultMeshedGridSpec(80)
	spec.SprinkleProb = 0.3
	spec.SprinkleSeed = 17
	spec.SprinklePools = map[exploits.Class][]exploits.VariantID{
		exploits.ClassOS:          {exploits.OSWinXPSP3, exploits.OSLinuxHMI},
		exploits.ClassPLCFirmware: {exploits.PLCABB, exploits.PLCS7_417},
	}
	fp1 := NewMeshedGrid(spec).Fingerprint()
	fp2 := NewMeshedGrid(spec).Fingerprint()
	if fp1 != fp2 {
		t.Fatalf("same spec+seed produced different fingerprints: %016x vs %016x", fp1, fp2)
	}
	spec.SprinkleSeed = 18
	if fp3 := NewMeshedGrid(spec).Fingerprint(); fp3 == fp1 {
		t.Fatal("different sprinkle seed produced an identical topology")
	}
	// Sprinkling must actually perturb components away from the defaults.
	spec.SprinkleProb = 1
	sprinkled := NewMeshedGrid(spec)
	changed := 0
	for _, n := range sprinkled.Nodes() {
		if v, ok := n.Component(exploits.ClassOS); ok && v != spec.DefaultOS {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("SprinkleProb=1 left every OS at the default")
	}
	if err := sprinkled.ValidateComponents(exploits.StuxnetCatalog()); err != nil {
		t.Fatal(err)
	}
}

// The generated grid must have the advertised shape: the requested
// substation count, one regional control center per region, and every
// RTU reachable from the corporate entry over network vectors.
func TestMeshedGridShape(t *testing.T) {
	const subs = 100
	spec := DefaultMeshedGridSpec(subs)
	topo := NewMeshedGrid(spec)
	rtus := topo.NodesOfKind(KindPLC)
	if len(rtus) != subs {
		t.Fatalf("got %d RTUs, want %d", len(rtus), subs)
	}
	regions := 0
	for _, n := range topo.Nodes() {
		if n.Kind == KindGateway && strings.HasPrefix(n.Name, "region-") {
			regions++
		}
	}
	if want := (subs + 24) / 25; regions != want {
		t.Fatalf("got %d regional gateways, want %d", regions, want)
	}
	entry := topo.NodesOfKind(KindCorporatePC)[0]
	for _, rtu := range []NodeID{rtus[0], rtus[len(rtus)/2], rtus[len(rtus)-1]} {
		if !topo.Reachable(entry, rtu, exploits.VectorRemote, exploits.VectorAdjacent) {
			t.Fatalf("RTU %d not network-reachable from the corporate entry", rtu)
		}
	}
	// Feeder instrumentation hangs off every RTU.
	if got := len(topo.NodesOfKind(KindSensor)); got != subs*spec.FeedersPerSub {
		t.Fatalf("got %d sensors, want %d", got, subs*spec.FeedersPerSub)
	}
	// Per-region feeder overrides change the sensor population.
	spec.RegionFeeders = []int{1, 1, 1, 3}
	custom := NewMeshedGrid(spec)
	if got := len(custom.NodesOfKind(KindSensor)); got == subs*spec.FeedersPerSub {
		t.Fatal("RegionFeeders override had no effect")
	}
}

// Ring + cross-tie meshing: a substation gateway failure must not
// disconnect the rest of its region (no substation gateway is an
// articulation point at the default cross-tie level).
func TestMeshedGridMeshingRedundancy(t *testing.T) {
	topo := NewMeshedGrid(DefaultMeshedGridSpec(60))
	cuts := map[NodeID]bool{}
	for _, id := range topo.ArticulationPoints() {
		cuts[id] = true
	}
	for _, n := range topo.Nodes() {
		if n.Kind == KindGateway && strings.HasPrefix(n.Name, "sub-") && cuts[n.ID] {
			// A substation gateway always cuts off its own RTU subtree, so
			// only flag it when removing it would split other gateways; the
			// ring guarantees at least two gateway-side neighbors.
			gwNeighbors := 0
			for _, nb := range topo.Neighbors(n.ID) {
				nd, _ := topo.Node(nb.Node)
				if nd.Kind == KindGateway {
					gwNeighbors++
				}
			}
			if gwNeighbors < 2 {
				t.Fatalf("substation gateway %q has no redundant gateway path", n.Name)
			}
		}
	}
}

func TestMeshedGridNormalization(t *testing.T) {
	// A sparse spec must normalize to a catalog-valid topology: empty
	// variant fields fall back to the reference defaults instead of
	// producing empty VariantIDs that zero every exploitability lookup.
	topo := NewMeshedGrid(MeshedGridSpec{})
	if got := len(topo.NodesOfKind(KindPLC)); got != 100 {
		t.Fatalf("zero-valued spec built %d substations, want the 100 default", got)
	}
	if err := topo.ValidateComponents(exploits.StuxnetCatalog()); err != nil {
		t.Fatal(err)
	}
	partial := NewMeshedGrid(MeshedGridSpec{Substations: 50, DefaultPLC: exploits.PLCABB})
	if err := partial.ValidateComponents(exploits.StuxnetCatalog()); err != nil {
		t.Fatal(err)
	}
	rtu, _ := partial.Node(partial.NodesOfKind(KindPLC)[0])
	if v, _ := rtu.Component(exploits.ClassPLCFirmware); v != exploits.PLCABB {
		t.Fatal("explicit DefaultPLC overridden by normalization")
	}
}

// Fingerprint must be sensitive to structure, not just size.
func TestFingerprintSensitivity(t *testing.T) {
	a := NewPowerGrid(DefaultPowerGridSpec())
	spec := DefaultPowerGridSpec()
	spec.DefaultPLC = exploits.PLCABB
	b := NewPowerGrid(spec)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("variant change did not change the fingerprint")
	}
	if a.Fingerprint() != NewPowerGrid(DefaultPowerGridSpec()).Fingerprint() {
		t.Fatal("identical builds fingerprint differently")
	}
}

// The built-in plants' fingerprints key every evaluation store, so a
// change to the hashed byte sequence would silently turn every existing
// store cold. These values must only change together with the store's
// spec tag.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo *Topology
		want uint64
	}{
		{"tiered", NewTieredSCADA(DefaultTieredSpec()), 0x8fbc7aa601d1d244},
		{"powergrid", NewPowerGrid(DefaultPowerGridSpec()), 0xfcd93cd68f8cc880},
		{"grid:60", NewMeshedGrid(DefaultMeshedGridSpec(60)), 0xcc1fb6a906738f1e},
		{"grid:400", NewMeshedGrid(DefaultMeshedGridSpec(400)), 0xea05aaae7fedbfde},
	} {
		if got := tc.topo.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// Keep the example in the MeshedGridSpec docs honest: grid:200 means 200
// substations and ~1200 nodes.
func TestMeshedGridScale(t *testing.T) {
	topo := NewMeshedGrid(DefaultMeshedGridSpec(200))
	if got := len(topo.NodesOfKind(KindPLC)); got != 200 {
		t.Fatalf("grid:200 built %d RTUs", got)
	}
	if topo.Len() < 1000 {
		t.Fatalf("grid:200 built only %d nodes", topo.Len())
	}
	if err := topo.ValidateComponents(exploits.StuxnetCatalog()); err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprintf("%d", topo.Len())
}

// RegionSizes pins heterogeneous regions: the build must honor the
// exact per-region substation counts, derive Regions and Substations
// from the list, fingerprint differently from the uniform split, and
// reject non-positive entries.
func TestMeshedGridRegionSizes(t *testing.T) {
	spec := DefaultMeshedGridSpec(0)
	spec.RegionSizes = []int{30, 20, 10}
	topo := NewMeshedGrid(spec)
	if got := len(topo.NodesOfKind(KindPLC)); got != 60 {
		t.Fatalf("got %d RTUs, want 60 (sum of RegionSizes)", got)
	}
	// Count each region's substation gateways through its regional
	// gateway's firewalled LAN links to sub-*-gw nodes.
	nameOf := map[NodeID]string{}
	regionGW := map[string]NodeID{}
	for _, n := range topo.Nodes() {
		nameOf[n.ID] = n.Name
		if n.Kind == KindGateway && strings.HasPrefix(n.Name, "region-") {
			regionGW[n.Name] = n.ID
		}
	}
	if len(regionGW) != 3 {
		t.Fatalf("got %d regional gateways, want 3 (len RegionSizes)", len(regionGW))
	}
	counts := map[string]int{}
	for _, l := range topo.Links() {
		a, b := nameOf[l.A], nameOf[l.B]
		if strings.HasPrefix(a, "region-") && strings.HasPrefix(b, "sub-") && strings.HasSuffix(b, "-gw") {
			counts[a]++
		}
		if strings.HasPrefix(b, "region-") && strings.HasPrefix(a, "sub-") && strings.HasSuffix(a, "-gw") {
			counts[b]++
		}
	}
	for reg, want := range map[string]int{"region-0-gw": 30, "region-1-gw": 20, "region-2-gw": 10} {
		if counts[reg] != want {
			t.Errorf("%s uplinks %d substations, want %d", reg, counts[reg], want)
		}
	}
	// Same total, different split ⇒ different certified structure.
	uniform := DefaultMeshedGridSpec(60)
	uniform.Regions = 3
	if NewMeshedGrid(uniform).Fingerprint() == topo.Fingerprint() {
		t.Fatal("heterogeneous split fingerprints identical to uniform split")
	}
	// Same sizes rebuild byte-identically.
	if NewMeshedGrid(spec).Fingerprint() != topo.Fingerprint() {
		t.Fatal("RegionSizes build not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive region size accepted")
		}
	}()
	bad := DefaultMeshedGridSpec(0)
	bad.RegionSizes = []int{5, 0, 5}
	NewMeshedGrid(bad)
}

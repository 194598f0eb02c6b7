package topology

import (
	"cmp"
	"errors"
	"maps"
	"slices"
	"testing"

	"diversify/internal/exploits"
)

// line builds a -- b -- c over LAN.
func line(t *testing.T) (*Topology, NodeID, NodeID, NodeID) {
	t.Helper()
	tp := New()
	a := tp.AddNode("a", KindCorporatePC, ZoneCorporate, nil)
	b := tp.AddNode("b", KindHMI, ZoneControl, nil)
	c := tp.AddNode("c", KindPLC, ZoneField, nil)
	tp.Connect(a, b, MediumLAN, "")
	tp.Connect(b, c, MediumFieldbus, "")
	return tp, a, b, c
}

func TestAddAndLookup(t *testing.T) {
	tp, a, _, _ := line(t)
	n, err := tp.Node(a)
	if err != nil || n.Name != "a" || n.Kind != KindCorporatePC {
		t.Fatalf("node = %+v err = %v", n, err)
	}
	if _, err := tp.Node(NodeID(99)); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	if tp.Len() != 3 {
		t.Fatalf("Len = %d", tp.Len())
	}
}

// AddNode copies the components map into a class-sorted list: Component
// agrees with the map for every class, carried or not, and later writes
// to the map leave the node unchanged.
func TestComponentsCopied(t *testing.T) {
	tp := New()
	src := map[exploits.Class]exploits.VariantID{
		exploits.ClassProtocol:    exploits.ProtoModbusStd,
		exploits.ClassOS:          exploits.OSWin7,
		exploits.ClassHistorian:   exploits.HistPI,
		exploits.ClassHMISoftware: exploits.HMIWinCC,
	}
	want := maps.Clone(src)
	id := tp.AddNode("x", KindHMI, ZoneControl, src)
	src[exploits.ClassOS] = exploits.OSWinXPSP2
	src[exploits.ClassDevice] = exploits.OSWin7
	delete(src, exploits.ClassHistorian)
	n, err := tp.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Components) != len(want) {
		t.Fatalf("Components = %v, want %d entries", n.Components, len(want))
	}
	if !slices.IsSortedFunc(n.Components, func(a, b Component) int { return cmp.Compare(a.Class, b.Class) }) {
		t.Fatalf("Components not ascending by class: %v", n.Components)
	}
	for c := exploits.Class(0); c <= exploits.ClassDevice+1; c++ {
		wv, wok := want[c]
		if v, ok := n.Component(c); v != wv || ok != wok {
			t.Fatalf("Component(%v) = %q %v, want %q %v", c, v, ok, wv, wok)
		}
	}
}

func TestConnectPanics(t *testing.T) {
	tp := New()
	a := tp.AddNode("a", KindHMI, ZoneControl, nil)
	for name, fn := range map[string]func(){
		"unknown": func() { tp.Connect(a, NodeID(9), MediumLAN, "") },
		"self":    func() { tp.Connect(a, a, MediumLAN, "") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

func TestNeighbors(t *testing.T) {
	tp, a, b, c := line(t)
	nb := tp.Neighbors(b)
	if len(nb) != 2 || nb[0].Node != a || nb[1].Node != c {
		t.Fatalf("neighbors of b = %+v", nb)
	}
	if nb[1].Medium != MediumFieldbus {
		t.Fatalf("medium = %v", nb[1].Medium)
	}
}

func TestNeighborsByVector(t *testing.T) {
	tp := New()
	a := tp.AddNode("a", KindCorporatePC, ZoneCorporate, nil)
	b := tp.AddNode("b", KindEngWorkstation, ZoneControl, nil)
	c := tp.AddNode("c", KindEngWorkstation, ZoneControl, nil)
	tp.Connect(a, b, MediumSneakernet, "")
	tp.Connect(a, c, MediumLAN, "")
	usb := tp.NeighborsByVector(a, exploits.VectorUSB)
	if len(usb) != 1 || usb[0].Node != b {
		t.Fatalf("usb neighbors = %+v", usb)
	}
	rem := tp.NeighborsByVector(a, exploits.VectorRemote)
	if len(rem) != 1 || rem[0].Node != c {
		t.Fatalf("remote neighbors = %+v", rem)
	}
	if loc := tp.NeighborsByVector(a, exploits.VectorLocal); len(loc) != 0 {
		t.Fatalf("local vector traversed links: %+v", loc)
	}
}

func TestMediumCarries(t *testing.T) {
	cases := []struct {
		m    Medium
		v    exploits.Vector
		want bool
	}{
		{MediumLAN, exploits.VectorRemote, true},
		{MediumLAN, exploits.VectorAdjacent, true},
		{MediumLAN, exploits.VectorUSB, false},
		{MediumSneakernet, exploits.VectorUSB, true},
		{MediumSneakernet, exploits.VectorRemote, false},
		{MediumFieldbus, exploits.VectorRemote, true},
		{MediumSerial, exploits.VectorAdjacent, true},
		{MediumLAN, exploits.VectorLocal, false},
	}
	for _, c := range cases {
		if got := c.m.Carries(c.v); got != c.want {
			t.Errorf("%v carries %v = %v, want %v", c.m, c.v, got, c.want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	tp, a, b, c := line(t)
	path := tp.ShortestPath(a, c)
	if len(path) != 3 || path[0] != a || path[1] != b || path[2] != c {
		t.Fatalf("path = %v", path)
	}
	if p := tp.ShortestPath(a, a); len(p) != 1 || p[0] != a {
		t.Fatalf("self path = %v", p)
	}
	// Vector-constrained: USB cannot cross LAN links.
	if p := tp.ShortestPath(a, c, exploits.VectorUSB); p != nil {
		t.Fatalf("USB path over LAN = %v", p)
	}
	if !tp.Reachable(a, c, exploits.VectorRemote) {
		t.Fatal("remote path should exist")
	}
}

func TestShortestPathPrefersFewerHops(t *testing.T) {
	tp := New()
	a := tp.AddNode("a", KindHMI, ZoneControl, nil)
	b := tp.AddNode("b", KindHMI, ZoneControl, nil)
	c := tp.AddNode("c", KindHMI, ZoneControl, nil)
	d := tp.AddNode("d", KindHMI, ZoneControl, nil)
	tp.Connect(a, b, MediumLAN, "")
	tp.Connect(b, d, MediumLAN, "")
	tp.Connect(a, c, MediumLAN, "")
	tp.Connect(c, d, MediumLAN, "")
	tp.Connect(a, d, MediumLAN, "") // direct
	if p := tp.ShortestPath(a, d); len(p) != 2 {
		t.Fatalf("path = %v, want direct hop", p)
	}
}

func TestArticulationPoints(t *testing.T) {
	// a - b - c with extra edge a-b2-b: b is the only cut vertex of
	// a--b--c; adding a parallel path around b removes it.
	tp, a, b, c := line(t)
	cuts := tp.ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != b {
		t.Fatalf("cut vertices = %v, want [b]", cuts)
	}
	_ = a
	_ = c
	// Cycle graph: no articulation points.
	ring := New()
	var ids []NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, ring.AddNode("n", KindHMI, ZoneControl, nil))
	}
	for i := range ids {
		ring.Connect(ids[i], ids[(i+1)%len(ids)], MediumLAN, "")
	}
	if cuts := ring.ArticulationPoints(); len(cuts) != 0 {
		t.Fatalf("ring cut vertices = %v, want none", cuts)
	}
}

func TestOnPathScores(t *testing.T) {
	tp, a, b, c := line(t)
	scores := tp.OnPathScores([]NodeID{a}, []NodeID{c})
	if scores[b] != 1 {
		t.Fatalf("scores = %v, want b:1", scores)
	}
	if scores[a] != 0 || scores[c] != 0 {
		t.Fatalf("endpoints scored: %v", scores)
	}
}

func TestTieredSCADAStructure(t *testing.T) {
	spec := DefaultTieredSpec()
	tp := NewTieredSCADA(spec)
	if got := len(tp.NodesOfKind(KindPLC)); got != spec.PLCs {
		t.Fatalf("PLCs = %d, want %d", got, spec.PLCs)
	}
	if got := len(tp.NodesOfKind(KindCorporatePC)); got != spec.CorporatePCs {
		t.Fatalf("corporate PCs = %d", got)
	}
	if got := len(tp.NodesOfKind(KindSensor)); got != spec.PLCs*spec.SensorsPerPLC {
		t.Fatalf("sensors = %d", got)
	}
	// Stuxnet path exists: corporate PC → (sneakernet) eng → (fieldbus) PLC.
	corp := tp.NodesOfKind(KindCorporatePC)[0]
	plc := tp.NodesOfKind(KindPLC)[0]
	path := tp.ShortestPath(corp, plc, exploits.VectorUSB, exploits.VectorRemote)
	if path == nil {
		t.Fatal("no attack path from corporate to PLC")
	}
	// Every PLC carries the default firmware variant.
	for _, id := range tp.NodesOfKind(KindPLC) {
		n, err := tp.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := n.Component(exploits.ClassPLCFirmware); v != spec.DefaultPLC {
			t.Fatalf("PLC %d firmware = %v", id, v)
		}
	}
	// The corporate↔control link is firewalled.
	fwFound := false
	for _, l := range tp.Links() {
		if l.Firewall != "" {
			fwFound = true
		}
	}
	if !fwFound {
		t.Fatal("no firewalled link in tiered topology")
	}
}

func TestPowerGridStructure(t *testing.T) {
	spec := DefaultPowerGridSpec()
	tp := NewPowerGrid(spec)
	if got := len(tp.NodesOfKind(KindPLC)); got != spec.Substations {
		t.Fatalf("RTUs = %d, want %d", got, spec.Substations)
	}
	if got := len(tp.NodesOfKind(KindGateway)); got != spec.Substations {
		t.Fatalf("gateways = %d", got)
	}
	// Control center reaches every RTU.
	hmi := tp.NodesOfKind(KindHMI)[0]
	for _, rtu := range tp.NodesOfKind(KindPLC) {
		if !tp.Reachable(hmi, rtu, exploits.VectorRemote) {
			t.Fatalf("RTU %d unreachable from control center", rtu)
		}
	}
	// Sensors exist per feeder.
	if got := len(tp.NodesOfKind(KindSensor)); got != spec.Substations*spec.FeedersPerSub {
		t.Fatalf("sensors = %d", got)
	}
}

func TestStringers(t *testing.T) {
	if KindPLC.String() != "PLC" || Kind(99).String() == "" {
		t.Fatal("Kind stringer")
	}
	if ZoneField.String() != "field" || Zone(99).String() == "" {
		t.Fatal("Zone stringer")
	}
	if MediumLAN.String() != "lan" || Medium(99).String() == "" {
		t.Fatal("Medium stringer")
	}
}

func BenchmarkShortestPathTiered(b *testing.B) {
	tp := NewTieredSCADA(DefaultTieredSpec())
	corp := tp.NodesOfKind(KindCorporatePC)[0]
	plc := tp.NodesOfKind(KindPLC)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tp.ShortestPath(corp, plc) == nil {
			b.Fatal("no path")
		}
	}
}

func BenchmarkArticulationPoints(b *testing.B) {
	tp := NewPowerGrid(DefaultPowerGridSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.ArticulationPoints()
	}
}

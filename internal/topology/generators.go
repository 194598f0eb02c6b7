package topology

import (
	"fmt"

	"diversify/internal/exploits"
	"diversify/internal/rng"
)

// TieredSCADASpec parameterizes the standard three-zone SCADA reference
// topology used throughout the experiments.
type TieredSCADASpec struct {
	CorporatePCs   int // PCs in the corporate zone (USB-exposed entry points)
	HMIs           int // operator stations in the control zone
	EngStations    int // engineering workstations (PLC programming)
	PLCs           int // field controllers
	SensorsPerPLC  int
	ActuatorPerPLC int
	// Default component variants; the diversity layer overrides these.
	DefaultOS        exploits.VariantID
	DefaultFirewall  exploits.VariantID
	DefaultPLC       exploits.VariantID
	DefaultHMI       exploits.VariantID
	DefaultEng       exploits.VariantID
	DefaultProtocol  exploits.VariantID
	DefaultHistorian exploits.VariantID
}

// DefaultTieredSpec returns the reference parameterization: a small plant
// with a Stuxnet-friendly monoculture (XP + WinCC + STEP7 + S7 PLCs +
// standard Modbus), matching the paper's premise that homogeneous systems
// are one-exploit-away from compromise.
func DefaultTieredSpec() TieredSCADASpec {
	return TieredSCADASpec{
		CorporatePCs:     4,
		HMIs:             2,
		EngStations:      2,
		PLCs:             4,
		SensorsPerPLC:    2,
		ActuatorPerPLC:   1,
		DefaultOS:        exploits.OSWinXPSP3,
		DefaultFirewall:  exploits.FWBasic,
		DefaultPLC:       exploits.PLCS7_315,
		DefaultHMI:       exploits.HMIWinCC,
		DefaultEng:       exploits.EngStep7,
		DefaultProtocol:  exploits.ProtoModbusStd,
		DefaultHistorian: exploits.HistPI,
	}
}

// NewTieredSCADA builds the three-zone topology:
//
//	corporate zone: CorporatePCs on a LAN, plus sneakernet edges into the
//	  control zone (removable media crossing the air gap);
//	control zone: HMIs, engineering stations and a historian on a control
//	  LAN, linked to the corporate LAN through a firewall;
//	field zone: PLCs on a fieldbus reachable from the control LAN, each
//	  PLC wired to its sensors and actuators over serial links.
func NewTieredSCADA(spec TieredSCADASpec) *Topology {
	t := New()
	comp := func(os exploits.VariantID, extra map[exploits.Class]exploits.VariantID) map[exploits.Class]exploits.VariantID {
		m := map[exploits.Class]exploits.VariantID{exploits.ClassOS: os}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}

	var corpPCs []NodeID
	for i := 0; i < spec.CorporatePCs; i++ {
		corpPCs = append(corpPCs, t.AddNode(fmt.Sprintf("corp-pc-%d", i), KindCorporatePC, ZoneCorporate,
			comp(spec.DefaultOS, nil)))
	}
	for i := 1; i < len(corpPCs); i++ {
		t.Connect(corpPCs[0], corpPCs[i], MediumLAN, "")
	}
	for i := 1; i < len(corpPCs)-1; i++ {
		t.Connect(corpPCs[i], corpPCs[i+1], MediumLAN, "")
	}

	var hmis []NodeID
	for i := 0; i < spec.HMIs; i++ {
		hmis = append(hmis, t.AddNode(fmt.Sprintf("hmi-%d", i), KindHMI, ZoneControl,
			comp(spec.DefaultOS, map[exploits.Class]exploits.VariantID{
				exploits.ClassHMISoftware: spec.DefaultHMI,
				exploits.ClassProtocol:    spec.DefaultProtocol,
			})))
	}
	var engs []NodeID
	for i := 0; i < spec.EngStations; i++ {
		engs = append(engs, t.AddNode(fmt.Sprintf("eng-%d", i), KindEngWorkstation, ZoneControl,
			comp(spec.DefaultOS, map[exploits.Class]exploits.VariantID{
				exploits.ClassEngTools: spec.DefaultEng,
				exploits.ClassProtocol: spec.DefaultProtocol,
			})))
	}
	historian := t.AddNode("historian", KindHistorian, ZoneControl,
		comp(spec.DefaultOS, map[exploits.Class]exploits.VariantID{
			exploits.ClassHistorian: spec.DefaultHistorian,
		}))

	// Control LAN is a star around the historian (a common pattern: the
	// historian talks to everything).
	controlNodes := append(append([]NodeID{}, hmis...), engs...)
	for _, n := range controlNodes {
		t.Connect(historian, n, MediumLAN, "")
	}
	// HMIs also talk to engineering stations directly.
	for _, h := range hmis {
		for _, e := range engs {
			t.Connect(h, e, MediumLAN, "")
		}
	}

	// Corporate ↔ control through a firewall-filtered LAN link, plus
	// sneakernet edges (contractor USB sticks) from each corporate PC to
	// each engineering station: the Stuxnet entry route.
	if len(corpPCs) > 0 {
		t.Connect(corpPCs[0], historian, MediumLAN, spec.DefaultFirewall)
		for _, c := range corpPCs {
			for _, e := range engs {
				t.Connect(c, e, MediumSneakernet, "")
			}
		}
	}

	// Field zone.
	for i := 0; i < spec.PLCs; i++ {
		plc := t.AddNode(fmt.Sprintf("plc-%d", i), KindPLC, ZoneField,
			map[exploits.Class]exploits.VariantID{
				exploits.ClassPLCFirmware: spec.DefaultPLC,
				exploits.ClassProtocol:    spec.DefaultProtocol,
			})
		// Every engineering station and HMI can reach every PLC over the
		// fieldbus (flat field network, worst practice but common).
		for _, e := range engs {
			t.Connect(e, plc, MediumFieldbus, "")
		}
		for _, h := range hmis {
			t.Connect(h, plc, MediumFieldbus, "")
		}
		for s := 0; s < spec.SensorsPerPLC; s++ {
			sensor := t.AddNode(fmt.Sprintf("plc-%d-sensor-%d", i, s), KindSensor, ZoneField, nil)
			t.Connect(plc, sensor, MediumSerial, "")
		}
		for a := 0; a < spec.ActuatorPerPLC; a++ {
			act := t.AddNode(fmt.Sprintf("plc-%d-actuator-%d", i, a), KindActuator, ZoneField, nil)
			t.Connect(plc, act, MediumSerial, "")
		}
	}
	return t
}

// PowerGridSpec parameterizes a transmission-grid monitoring topology: a
// control center plus N substations, each with an RTU-style PLC and its
// instrumentation.
type PowerGridSpec struct {
	Substations      int
	FeedersPerSub    int
	DefaultOS        exploits.VariantID
	DefaultFirewall  exploits.VariantID
	DefaultPLC       exploits.VariantID
	DefaultProtocol  exploits.VariantID
	DefaultHistorian exploits.VariantID
}

// DefaultPowerGridSpec returns a 6-substation reference grid.
func DefaultPowerGridSpec() PowerGridSpec {
	return PowerGridSpec{
		Substations:      6,
		FeedersPerSub:    2,
		DefaultOS:        exploits.OSWin7,
		DefaultFirewall:  exploits.FWDPI,
		DefaultPLC:       exploits.PLCModicon,
		DefaultProtocol:  exploits.ProtoModbusStd,
		DefaultHistorian: exploits.HistPI,
	}
}

// NewPowerGrid builds the control-center + substations topology. A small
// corporate office (two PCs with a firewalled link into the control
// center and removable-media movement to the engineering station) is the
// attacker's entry; the control center hosts two HMIs, a historian and
// an engineering station; each substation hosts a gateway (firewalled
// WAN link), a PLC/RTU and FeedersPerSub sensor/actuator pairs;
// substation gateways are chained to their neighbor to model
// inter-substation links.
func NewPowerGrid(spec PowerGridSpec) *Topology {
	t := New()
	os := func(extra map[exploits.Class]exploits.VariantID) map[exploits.Class]exploits.VariantID {
		m := map[exploits.Class]exploits.VariantID{exploits.ClassOS: spec.DefaultOS}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}
	corp0 := t.AddNode("office-pc-0", KindCorporatePC, ZoneCorporate, os(nil))
	corp1 := t.AddNode("office-pc-1", KindCorporatePC, ZoneCorporate, os(nil))
	t.Connect(corp0, corp1, MediumLAN, "")
	hmi1 := t.AddNode("cc-hmi-0", KindHMI, ZoneControl, os(map[exploits.Class]exploits.VariantID{
		exploits.ClassHMISoftware: exploits.HMIWonderware,
		exploits.ClassProtocol:    spec.DefaultProtocol,
	}))
	hmi2 := t.AddNode("cc-hmi-1", KindHMI, ZoneControl, os(map[exploits.Class]exploits.VariantID{
		exploits.ClassHMISoftware: exploits.HMIWonderware,
		exploits.ClassProtocol:    spec.DefaultProtocol,
	}))
	hist := t.AddNode("cc-historian", KindHistorian, ZoneControl, os(map[exploits.Class]exploits.VariantID{
		exploits.ClassHistorian: spec.DefaultHistorian,
	}))
	eng := t.AddNode("cc-eng", KindEngWorkstation, ZoneControl, os(map[exploits.Class]exploits.VariantID{
		exploits.ClassEngTools: exploits.EngUnityPro,
	}))
	t.Connect(hmi1, hist, MediumLAN, "")
	t.Connect(hmi2, hist, MediumLAN, "")
	t.Connect(eng, hist, MediumLAN, "")
	t.Connect(hmi1, hmi2, MediumLAN, "")
	t.Connect(corp0, hist, MediumLAN, spec.DefaultFirewall)
	t.Connect(corp0, eng, MediumSneakernet, "")
	t.Connect(corp1, eng, MediumSneakernet, "")

	var gateways []NodeID
	for i := 0; i < spec.Substations; i++ {
		gw := t.AddNode(fmt.Sprintf("sub-%d-gw", i), KindGateway, ZoneField, os(nil))
		gateways = append(gateways, gw)
		t.Connect(hist, gw, MediumLAN, spec.DefaultFirewall)
		plc := t.AddNode(fmt.Sprintf("sub-%d-rtu", i), KindPLC, ZoneField,
			map[exploits.Class]exploits.VariantID{
				exploits.ClassPLCFirmware: spec.DefaultPLC,
				exploits.ClassProtocol:    spec.DefaultProtocol,
			})
		t.Connect(gw, plc, MediumFieldbus, "")
		for f := 0; f < spec.FeedersPerSub; f++ {
			sen := t.AddNode(fmt.Sprintf("sub-%d-ct-%d", i, f), KindSensor, ZoneField, nil)
			act := t.AddNode(fmt.Sprintf("sub-%d-breaker-%d", i, f), KindActuator, ZoneField, nil)
			t.Connect(plc, sen, MediumSerial, "")
			t.Connect(plc, act, MediumSerial, "")
		}
	}
	for i := 1; i < len(gateways); i++ {
		t.Connect(gateways[i-1], gateways[i], MediumLAN, "")
	}
	return t
}

// MeshedGridSpec parameterizes a generated transmission grid at
// realistic scale: Substations RTU sites grouped into Regions, each
// region run from a regional control center chained to the national
// control center. Substation gateways form a ring within their region,
// regional gateways form a backbone ring, and CrossTies extra gateway
// links mesh neighboring regions together — the redundant-path structure
// the larger diversified-network studies (Li et al., Chen et al.)
// evaluate on. Scenario size becomes a single knob: the CLI spells it
// `-topo grid:200`.
type MeshedGridSpec struct {
	// Substations is the total RTU site count across every region.
	Substations int
	// Regions groups the substations; each region gets a regional control
	// center (gateway + HMI + historian). 0 = one region per 25
	// substations.
	Regions int
	// RegionSizes pins heterogeneous region sizes: region r holds
	// RegionSizes[r] substations — how real interconnects look (a dense
	// metro region next to sparse rural ones, a small legacy pocket that
	// rotation policies must keep evicting the attacker from). When set
	// it overrides Regions (= len(RegionSizes)) and Substations (= the
	// sum); entries must be positive (normalize panics otherwise, like
	// the rng package on invalid parameters).
	RegionSizes []int
	// FeedersPerSub is the sensor/actuator pair count per substation;
	// RegionFeeders optionally overrides it per region (region r uses
	// RegionFeeders[r % len]), modeling regions with denser instrumentation.
	FeedersPerSub int
	RegionFeeders []int
	// CrossTies is the number of substation-gateway links added between
	// each pair of neighboring regions (meshing beyond the backbone ring).
	CrossTies int

	// Default component variants; the diversity layer overrides these.
	DefaultOS        exploits.VariantID
	DefaultFirewall  exploits.VariantID
	DefaultPLC       exploits.VariantID
	DefaultHMI       exploits.VariantID
	DefaultEng       exploits.VariantID
	DefaultProtocol  exploits.VariantID
	DefaultHistorian exploits.VariantID

	// SprinkleProb, when positive, perturbs node components away from the
	// defaults: each (node, class) carrying a SprinklePools entry is
	// rerolled with this probability to a uniformly drawn pool variant,
	// using a generator seeded from SprinkleSeed. Construction order is
	// fixed, so the same spec and seed always produce a byte-identical
	// topology — generated grids stay reproducible scenario inputs.
	SprinkleProb  float64
	SprinkleSeed  uint64
	SprinklePools map[exploits.Class][]exploits.VariantID
}

// DefaultMeshedGridSpec returns the reference parameterization for a
// grid with the given number of substations: Win7 monoculture, DPI
// firewalls on WAN links, Modicon RTUs on standard Modbus — the
// "one-exploit-away" premise at transmission scale.
func DefaultMeshedGridSpec(substations int) MeshedGridSpec {
	return MeshedGridSpec{
		Substations:      substations,
		FeedersPerSub:    2,
		CrossTies:        2,
		DefaultOS:        exploits.OSWin7,
		DefaultFirewall:  exploits.FWDPI,
		DefaultPLC:       exploits.PLCModicon,
		DefaultHMI:       exploits.HMIWonderware,
		DefaultEng:       exploits.EngUnityPro,
		DefaultProtocol:  exploits.ProtoModbusStd,
		DefaultHistorian: exploits.HistPI,
	}
}

// normalize fills MeshedGridSpec defaults in place — structural knobs
// AND variant fields, so a sparse spec (e.g. MeshedGridSpec{Substations:
// 50}) builds a catalog-valid topology instead of one full of empty
// VariantIDs that silently zero every exploitability lookup.
func (s *MeshedGridSpec) normalize() {
	if len(s.RegionSizes) > 0 {
		total := 0
		for i, size := range s.RegionSizes {
			if size <= 0 {
				panic(fmt.Sprintf("topology: RegionSizes[%d] = %d, want positive", i, size))
			}
			total += size
		}
		s.Regions = len(s.RegionSizes)
		s.Substations = total
	}
	if s.Substations <= 0 {
		s.Substations = 100
	}
	if s.Regions <= 0 {
		s.Regions = (s.Substations + 24) / 25
	}
	if s.Regions > s.Substations {
		s.Regions = s.Substations
	}
	if s.FeedersPerSub <= 0 {
		s.FeedersPerSub = 2
	}
	if s.CrossTies < 0 {
		s.CrossTies = 0
	}
	ref := DefaultMeshedGridSpec(s.Substations)
	fill := func(v *exploits.VariantID, def exploits.VariantID) {
		if *v == "" {
			*v = def
		}
	}
	fill(&s.DefaultOS, ref.DefaultOS)
	fill(&s.DefaultFirewall, ref.DefaultFirewall)
	fill(&s.DefaultPLC, ref.DefaultPLC)
	fill(&s.DefaultHMI, ref.DefaultHMI)
	fill(&s.DefaultEng, ref.DefaultEng)
	fill(&s.DefaultProtocol, ref.DefaultProtocol)
	fill(&s.DefaultHistorian, ref.DefaultHistorian)
}

// NewMeshedGrid builds the regional transmission-grid topology:
//
//	corporate zone: two office PCs with a firewalled link into the
//	  national control center and sneakernet movement to the national
//	  engineering station (the attacker's entry);
//	national control center: two HMIs, a historian and an engineering
//	  station on a control LAN;
//	regions: a regional gateway + HMI + historian per region, each
//	  gateway WAN-linked (firewalled) to the national historian, and the
//	  regional gateways chained in a backbone ring;
//	substations: per substation a gateway (firewalled uplink to its
//	  regional gateway), an RTU on a fieldbus, and FeedersPerSub
//	  sensor/actuator pairs on serial links; substation gateways form a
//	  ring within their region plus CrossTies links to the next region.
func NewMeshedGrid(spec MeshedGridSpec) *Topology {
	spec.normalize()
	t := New()
	r := rng.New(spec.SprinkleSeed)
	// pick resolves the variant for one (class, default) slot, applying
	// the seeded sprinkle. Call order is construction order, which keeps
	// the generated topology a pure function of (spec, seed).
	pick := func(class exploits.Class, def exploits.VariantID) exploits.VariantID {
		if spec.SprinkleProb <= 0 {
			return def
		}
		pool := spec.SprinklePools[class]
		if len(pool) == 0 || !r.Bool(spec.SprinkleProb) {
			return def
		}
		return pool[r.Intn(len(pool))]
	}
	os := func(extra map[exploits.Class]exploits.VariantID) map[exploits.Class]exploits.VariantID {
		m := map[exploits.Class]exploits.VariantID{exploits.ClassOS: pick(exploits.ClassOS, spec.DefaultOS)}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}

	corp0 := t.AddNode("office-pc-0", KindCorporatePC, ZoneCorporate, os(nil))
	corp1 := t.AddNode("office-pc-1", KindCorporatePC, ZoneCorporate, os(nil))
	t.Connect(corp0, corp1, MediumLAN, "")

	hmi := func(name string) NodeID {
		return t.AddNode(name, KindHMI, ZoneControl, os(map[exploits.Class]exploits.VariantID{
			exploits.ClassHMISoftware: pick(exploits.ClassHMISoftware, spec.DefaultHMI),
			exploits.ClassProtocol:    pick(exploits.ClassProtocol, spec.DefaultProtocol),
		}))
	}
	historian := func(name string) NodeID {
		return t.AddNode(name, KindHistorian, ZoneControl, os(map[exploits.Class]exploits.VariantID{
			exploits.ClassHistorian: pick(exploits.ClassHistorian, spec.DefaultHistorian),
		}))
	}
	ccHMI0 := hmi("cc-hmi-0")
	ccHMI1 := hmi("cc-hmi-1")
	ccHist := historian("cc-historian")
	ccEng := t.AddNode("cc-eng", KindEngWorkstation, ZoneControl, os(map[exploits.Class]exploits.VariantID{
		exploits.ClassEngTools: pick(exploits.ClassEngTools, spec.DefaultEng),
	}))
	t.Connect(ccHMI0, ccHist, MediumLAN, "")
	t.Connect(ccHMI1, ccHist, MediumLAN, "")
	t.Connect(ccEng, ccHist, MediumLAN, "")
	t.Connect(ccHMI0, ccHMI1, MediumLAN, "")
	t.Connect(corp0, ccHist, MediumLAN, spec.DefaultFirewall)
	t.Connect(corp0, ccEng, MediumSneakernet, "")
	t.Connect(corp1, ccEng, MediumSneakernet, "")

	regionGWs := make([]NodeID, 0, spec.Regions)
	regionSubGWs := make([][]NodeID, spec.Regions)
	sub := 0
	for reg := 0; reg < spec.Regions; reg++ {
		rgw := t.AddNode(fmt.Sprintf("region-%d-gw", reg), KindGateway, ZoneControl, os(nil))
		rhmi := hmi(fmt.Sprintf("region-%d-hmi", reg))
		rhist := historian(fmt.Sprintf("region-%d-historian", reg))
		t.Connect(ccHist, rgw, MediumLAN, spec.DefaultFirewall) // national WAN uplink
		t.Connect(rgw, rhmi, MediumLAN, "")
		t.Connect(rgw, rhist, MediumLAN, "")
		t.Connect(rhmi, rhist, MediumLAN, "")
		regionGWs = append(regionGWs, rgw)

		feeders := spec.FeedersPerSub
		if len(spec.RegionFeeders) > 0 {
			feeders = spec.RegionFeeders[reg%len(spec.RegionFeeders)]
		}
		// Region reg owns substations [reg*N/R, (reg+1)*N/R) — or exactly
		// its pinned RegionSizes share.
		hi := (reg + 1) * spec.Substations / spec.Regions
		if len(spec.RegionSizes) > 0 {
			hi = sub + spec.RegionSizes[reg]
		}
		var subGWs []NodeID
		for ; sub < hi; sub++ {
			sgw := t.AddNode(fmt.Sprintf("sub-%d-gw", sub), KindGateway, ZoneField, os(nil))
			t.Connect(rgw, sgw, MediumLAN, spec.DefaultFirewall)
			rtu := t.AddNode(fmt.Sprintf("sub-%d-rtu", sub), KindPLC, ZoneField,
				map[exploits.Class]exploits.VariantID{
					exploits.ClassPLCFirmware: pick(exploits.ClassPLCFirmware, spec.DefaultPLC),
					exploits.ClassProtocol:    pick(exploits.ClassProtocol, spec.DefaultProtocol),
				})
			t.Connect(sgw, rtu, MediumFieldbus, "")
			for f := 0; f < feeders; f++ {
				sen := t.AddNode(fmt.Sprintf("sub-%d-ct-%d", sub, f), KindSensor, ZoneField, nil)
				act := t.AddNode(fmt.Sprintf("sub-%d-breaker-%d", sub, f), KindActuator, ZoneField, nil)
				t.Connect(rtu, sen, MediumSerial, "")
				t.Connect(rtu, act, MediumSerial, "")
			}
			subGWs = append(subGWs, sgw)
		}
		// Intra-region ring over the substation gateways.
		for i := 1; i < len(subGWs); i++ {
			t.Connect(subGWs[i-1], subGWs[i], MediumLAN, "")
		}
		if len(subGWs) > 2 {
			t.Connect(subGWs[len(subGWs)-1], subGWs[0], MediumLAN, "")
		}
		regionSubGWs[reg] = subGWs
	}
	// Regional backbone ring.
	for i := 1; i < len(regionGWs); i++ {
		t.Connect(regionGWs[i-1], regionGWs[i], MediumLAN, "")
	}
	if len(regionGWs) > 2 {
		t.Connect(regionGWs[len(regionGWs)-1], regionGWs[0], MediumLAN, "")
	}
	// Cross-ties: evenly spaced substation links into the next region.
	for reg := 0; reg < spec.Regions && spec.Regions > 1; reg++ {
		next := (reg + 1) % spec.Regions
		if spec.Regions == 2 && reg == 1 {
			break // two regions: one tied pair, not two
		}
		a, b := regionSubGWs[reg], regionSubGWs[next]
		ties := spec.CrossTies
		if ties > len(a) {
			ties = len(a)
		}
		if ties > len(b) {
			ties = len(b)
		}
		for k := 0; k < ties; k++ {
			t.Connect(a[k*len(a)/ties], b[k*len(b)/ties], MediumLAN, spec.DefaultFirewall)
		}
	}
	return t
}

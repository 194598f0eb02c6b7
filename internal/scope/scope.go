// Package scope reproduces the paper's case study: "the cooling system
// of the SCoPE data center at the Federico II University of Naples. A
// system model encompassing control/monitoring nodes and PLCs has been
// developed by means of the stochastic activity networks (SAN)
// formalism."
//
// The package provides:
//
//   - the cooling-system topology (campus entry point, monitoring node,
//     control nodes, four PLCs driving CRAC units);
//   - a SAN attack model generated from that topology and an exploit
//     catalog, parameterized by a diversity assignment (step 1 of the
//     framework instantiated exactly as the authors describe);
//   - a coupled full simulation where SAN-sampled attack timings drive
//     logic injection into the physical cooling-plant model, measuring
//     real thermal damage and HMI alarm times;
//   - the placement experiment behind the paper's one quantitative
//     claim: "a small, strategically distributed, number of highly
//     attack-resilient components can significantly lower the chance of
//     bringing a successful attack to the system" (experiment E7).
package scope

import (
	"errors"
	"fmt"
	"math"

	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/physics"
	"diversify/internal/rng"
	"diversify/internal/san"
	"diversify/internal/scada"
	"diversify/internal/topology"
)

// ErrBadCaseStudy reports invalid case-study configuration.
var ErrBadCaseStudy = errors.New("scope: invalid case study")

// PLCCount is the number of cooling PLCs in the SCoPE-like model (one
// per CRAC zone).
const PLCCount = 4

// NewCoolingTopology builds the SCoPE-like cooling system graph:
//
//	campus-pc ——(sneakernet)——→ control-0 / control-1
//	monitor ——(LAN)—— control-0, control-1 (and firewalled campus link)
//	control-{0,1} ——(fieldbus)——→ plc-{0..3} ——(serial)——→ temp sensors
func NewCoolingTopology() *topology.Topology {
	t := topology.New()
	campus := t.AddNode("campus-pc", topology.KindCorporatePC, topology.ZoneCorporate,
		map[exploits.Class]exploits.VariantID{exploits.ClassOS: exploits.OSWinXPSP3})
	monitor := t.AddNode("monitor", topology.KindHistorian, topology.ZoneControl,
		map[exploits.Class]exploits.VariantID{
			exploits.ClassOS:          exploits.OSWinXPSP3,
			exploits.ClassHMISoftware: exploits.HMIWinCC,
		})
	control := make([]topology.NodeID, 2)
	for i := range control {
		control[i] = t.AddNode(fmt.Sprintf("control-%d", i), topology.KindEngWorkstation,
			topology.ZoneControl, map[exploits.Class]exploits.VariantID{
				exploits.ClassOS:       exploits.OSWinXPSP3,
				exploits.ClassEngTools: exploits.EngStep7,
			})
	}
	t.Connect(campus, monitor, topology.MediumLAN, exploits.FWBasic)
	for _, c := range control {
		t.Connect(campus, c, topology.MediumSneakernet, "")
		t.Connect(monitor, c, topology.MediumLAN, "")
	}
	t.Connect(control[0], control[1], topology.MediumLAN, "")
	for i := 0; i < PLCCount; i++ {
		plc := t.AddNode(fmt.Sprintf("plc-%d", i), topology.KindPLC, topology.ZoneField,
			map[exploits.Class]exploits.VariantID{
				exploits.ClassPLCFirmware: exploits.PLCS7_315,
				exploits.ClassProtocol:    exploits.ProtoModbusStd,
			})
		for _, c := range control {
			t.Connect(c, plc, topology.MediumFieldbus, "")
		}
		sensor := t.AddNode(fmt.Sprintf("plc-%d-temp", i), topology.KindSensor, topology.ZoneField, nil)
		t.Connect(plc, sensor, topology.MediumSerial, "")
	}
	return t
}

// CaseStudy bundles the model inputs.
type CaseStudy struct {
	Topo    *topology.Topology
	Catalog *exploits.Catalog
	// MaxAttempts bounds per-node attack attempts in the SAN (tokens in
	// each attempts place).
	MaxAttempts int
	// ImpairTargets is how many PLCs must be impaired for attack
	// success.
	ImpairTargets int
}

// NewCaseStudy returns the default configuration.
func NewCaseStudy() *CaseStudy {
	return &CaseStudy{
		Topo:          NewCoolingTopology(),
		Catalog:       exploits.StuxnetCatalog(),
		MaxAttempts:   6,
		ImpairTargets: 1,
	}
}

// sanModel carries the generated SAN and its marking probes.
type sanModel struct {
	model    *san.Model
	impaired san.PlaceID
	perNode  map[topology.NodeID]san.PlaceID // compromised places
}

// buildSAN generates the attack SAN from the topology under an
// assignment overlay. Every compromisable node gets a compromised place,
// an attempts place and a timed compromise activity whose success
// probability and latency come from the catalog; PLCs additionally get
// impairment activities feeding the shared impaired place.
func (cs *CaseStudy) buildSAN(assign *diversity.Assignment) (*sanModel, error) {
	m := san.NewModel()
	sm := &sanModel{model: m, perNode: map[topology.NodeID]san.PlaceID{}}
	sm.impaired = m.Place("impaired", 0)

	variant := func(n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
		return diversity.EffectiveVariant(assign, n, c)
	}
	// Composite per-node compromise parameters.
	type nodeParams struct {
		node    topology.Node
		prob    float64
		latency float64
		entry   bool
	}
	params := make([]nodeParams, 0, cs.Topo.Len())
	for _, n := range cs.Topo.Nodes() {
		if len(n.Components) == 0 {
			continue
		}
		np := nodeParams{node: n}
		switch n.Kind {
		case topology.KindPLC:
			fw, ok := variant(n, exploits.ClassPLCFirmware)
			if !ok {
				continue
			}
			p, lat, err := cs.Catalog.Exploitability(exploits.StageInjection, exploits.VectorRemote, fw)
			if err != nil {
				return nil, err
			}
			np.prob, np.latency = p, math.Max(lat, 1)
		case topology.KindCorporatePC:
			os, ok := variant(n, exploits.ClassOS)
			if !ok {
				continue
			}
			pAct, latAct, err := cs.Catalog.Exploitability(exploits.StageActivation, exploits.VectorUSB, os)
			if err != nil {
				return nil, err
			}
			pRoot, latRoot, err := cs.Catalog.Exploitability(exploits.StageRootAccess, exploits.VectorLocal, os)
			if err != nil {
				return nil, err
			}
			np.prob = pAct * pRoot
			np.latency = math.Max(latAct+latRoot, 1)
			np.entry = true
		default:
			os, ok := variant(n, exploits.ClassOS)
			if !ok {
				continue
			}
			pOS, latOS, err := cs.Catalog.Exploitability(exploits.StagePropagation, exploits.VectorAdjacent, os)
			if err != nil {
				return nil, err
			}
			var pHMI float64
			if hmi, ok := variant(n, exploits.ClassHMISoftware); ok {
				p2, _, err := cs.Catalog.Exploitability(exploits.StagePropagation, exploits.VectorRemote, hmi)
				if err != nil {
					return nil, err
				}
				pHMI = p2
			}
			pRoot, latRoot, err := cs.Catalog.Exploitability(exploits.StageRootAccess, exploits.VectorLocal, os)
			if err != nil {
				return nil, err
			}
			np.prob = (1 - (1-pOS)*(1-pHMI)) * pRoot
			np.latency = math.Max(latOS+latRoot, 1)
		}
		params = append(params, np)
	}
	// Places.
	attempts := map[topology.NodeID]san.PlaceID{}
	for _, np := range params {
		sm.perNode[np.node.ID] = m.Place("comp:"+np.node.Name, 0)
		attempts[np.node.ID] = m.Place("att:"+np.node.Name, cs.MaxAttempts)
	}
	// Activities: a node is attackable when an adjacent compromised node
	// exists (or unconditionally for entry nodes — infected media).
	for _, np := range params {
		np := np
		compPlace := sm.perNode[np.node.ID]
		// The sealed neighbor view is a shared zero-alloc slice; only the
		// matching place IDs are copied out.
		nbs := cs.Topo.Neighbors(np.node.ID)
		predPlaces := make([]san.PlaceID, 0, len(nbs))
		for _, nb := range nbs {
			if p, ok := sm.perNode[nb.Node]; ok {
				predPlaces = append(predPlaces, p)
			}
		}
		guard := func(mk san.Marking) bool {
			if mk.Tokens(compPlace) > 0 {
				return false
			}
			if np.entry {
				return true
			}
			for _, p := range predPlaces {
				if mk.Tokens(p) > 0 {
					return true
				}
			}
			return false
		}
		act := m.TimedActivity("attack:"+np.node.Name, rng.Exponential{Rate: 1 / np.latency}).
			Input(attempts[np.node.ID], 1).
			Guard("reachable:"+np.node.Name, guard)
		act.Case(san.Case{Name: "success", Prob: np.prob,
			Outputs: []san.Arc{{Place: compPlace, Tokens: 1}}})
		act.Case(san.Case{Name: "fail", Prob: 1 - np.prob})

		// PLC impairment: compromised PLC drives malicious signals
		// through its protocol variant.
		if np.node.Kind == topology.KindPLC {
			proto, ok := variant(np.node, exploits.ClassProtocol)
			if !ok {
				continue
			}
			pImp, latImp, err := cs.Catalog.Exploitability(exploits.StageImpairment, exploits.VectorRemote, proto)
			if err != nil {
				return nil, err
			}
			impAttempts := m.Place("impatt:"+np.node.Name, cs.MaxAttempts)
			impDone := m.Place("impdone:"+np.node.Name, 0)
			impGuard := func(mk san.Marking) bool {
				return mk.Tokens(compPlace) > 0 && mk.Tokens(impDone) == 0
			}
			imp := m.TimedActivity("impair:"+np.node.Name, rng.Exponential{Rate: 1 / math.Max(latImp, 0.5)}).
				Input(impAttempts, 1).
				Guard("injected:"+np.node.Name, impGuard)
			imp.Case(san.Case{Name: "success", Prob: pImp, Outputs: []san.Arc{
				{Place: sm.impaired, Tokens: 1},
				{Place: impDone, Tokens: 1},
			}})
			imp.Case(san.Case{Name: "fail", Prob: 1 - pImp})
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return sm, nil
}

// EvaluateSAN runs one SAN replication under the assignment and returns
// the outcome (success = ImpairTargets PLCs impaired within the horizon).
func (cs *CaseStudy) EvaluateSAN(assign *diversity.Assignment, r *rng.Rand, horizon float64) (indicators.Outcome, error) {
	if horizon <= 0 {
		return indicators.Outcome{}, fmt.Errorf("%w: horizon %v", ErrBadCaseStudy, horizon)
	}
	sm, err := cs.buildSAN(assign)
	if err != nil {
		return indicators.Outcome{}, err
	}
	sim, err := san.NewSim(sm.model, r)
	if err != nil {
		return indicators.Outcome{}, err
	}
	// Compromised-ratio reward over the countable nodes.
	total := len(sm.perNode)
	ok, at, err := sim.RunUntil(horizon, func(mk san.Marking) bool {
		return mk.Tokens(sm.impaired) >= cs.ImpairTargets
	})
	if err != nil {
		return indicators.Outcome{}, err
	}
	out := indicators.Outcome{Horizon: horizon}
	if ok {
		out.Success = true
		out.TTA = at
	}
	comp := 0
	for _, p := range sm.perNode {
		if sim.Marking().Tokens(p) > 0 {
			comp++
		}
	}
	if comp > 0 {
		out.Compromised = []indicators.Point{{T: sim.Now(), Value: float64(comp) / float64(total)}}
	}
	return out, nil
}

// FullSimResult couples the SAN-sampled attack with the physical plant.
type FullSimResult struct {
	Outcome indicators.Outcome
	// Damage is the thermal damage accumulated by the cooling plant.
	Damage float64
	// AlarmTime is when the HMI perceived the attack (0 if never); with
	// replay spoofing engaged the alarm typically never fires and the
	// damage is discovered only physically.
	AlarmTime float64
	Alarmed   bool
}

// EvaluateFullSim runs the coupled model: the SAN samples when the attack
// impairs a PLC; at that moment the scada layer injects cooling-off logic
// (with record/replay spoofing engaged with probability spoofProb) into
// the corresponding zone controller of a live physical cooling plant, and
// the result reports the real thermal damage plus the HMI alarm time.
func (cs *CaseStudy) EvaluateFullSim(assign *diversity.Assignment, r *rng.Rand,
	horizon float64, spoofProb float64) (FullSimResult, error) {
	attack, err := cs.EvaluateSAN(assign, r, horizon)
	if err != nil {
		return FullSimResult{}, err
	}
	// Physical plant: one PLC controlling all four zones via proportional
	// cooling.
	sim := des.NewSim()
	proc, err := physics.NewCoolingPlant(physics.DefaultCoolingConfig())
	if err != nil {
		return FullSimResult{}, err
	}
	tempRegs := []int{0, 1, 2, 3}
	setRegs := []int{0, 1, 2, 3}
	cmdRegs := []int{4, 5, 6, 7}
	plc, err := scada.NewPLC("cooling-plc", 8, 4, 1,
		scada.ProportionalCooling(tempRegs, setRegs, cmdRegs, 0.5))
	if err != nil {
		return FullSimResult{}, err
	}
	for _, reg := range setRegs {
		if err := plc.SetHolding(reg, 30); err != nil {
			return FullSimResult{}, err
		}
	}
	var sensors []scada.SensorBinding
	var acts []scada.ActuatorBinding
	for z := 0; z < 4; z++ {
		sensors = append(sensors, scada.SensorBinding{SensorIndex: z, PLC: plc, InputReg: tempRegs[z], NoiseSigma: 0.1})
		acts = append(acts, scada.ActuatorBinding{PLC: plc, HoldingReg: cmdRegs[z], CmdIndex: z})
	}
	hmi := scada.NewHMI([]scada.AlarmWatch{
		{Name: "zone0", PLC: plc, InputReg: 0, Min: 0, Max: 38},
		{Name: "zone1", PLC: plc, InputReg: 1, Min: 0, Max: 38},
	})
	plant, err := scada.NewPlant(sim, r.Split(), scada.PlantConfig{
		Process:    proc,
		PLCs:       []*scada.PLC{plc},
		Sensors:    sensors,
		Actuators:  acts,
		HMI:        hmi,
		StepPeriod: 0.05,
		PollPeriod: 0.2,
	})
	if err != nil {
		return FullSimResult{}, err
	}
	plant.Start()
	if attack.Success {
		at := attack.TTA
		spoof := r.Bool(spoofProb)
		sim.SchedulePayload(at, func(des.Payload) {
			if spoof {
				if err := plc.StartReplay(); err != nil {
					return // no recorded history yet; spoofing skipped
				}
			}
			if err := plc.InjectLogic(scada.ConstantOutput(cmdRegs, 0)); err != nil {
				return // validated program; cannot fail in practice
			}
		}, des.Payload{})
	}
	if err := sim.Run(horizon); err != nil {
		return FullSimResult{}, err
	}
	res := FullSimResult{Outcome: attack, Damage: proc.Damage()}
	if at, ok := hmi.FirstAlarmTime(); ok {
		res.Alarmed = true
		res.AlarmTime = at
		res.Outcome.Detected = true
		res.Outcome.TTSF = at
	}
	return res, nil
}

// Strategy selects a resilient-component placement policy for the E7
// experiment.
type Strategy int

// Placement strategies compared by the case study.
const (
	StrategyRandom Strategy = iota + 1
	StrategyStrategic
	StrategyWorst
)

func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyStrategic:
		return "strategic"
	case StrategyWorst:
		return "worst"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// PlacementCell is one row of the E7 result grid.
type PlacementCell struct {
	Resilient int
	Strategy  Strategy
	PSuccess  float64
	MeanTTA   float64 // conditional on success; NaN when never successful
	N         int
}

// PlacementAssignment builds the diversity assignment for hardening k
// nodes under the given strategy (hardened OS on workstations plus the
// diversified protocol on any hardened PLC).
func (cs *CaseStudy) PlacementAssignment(k int, strategy Strategy, r *rng.Rand) (*diversity.Assignment, error) {
	a := diversity.NewAssignment()
	if k == 0 {
		return a, nil
	}
	entries := cs.Topo.NodesOfKind(topology.KindCorporatePC)
	targets := cs.Topo.NodesOfKind(topology.KindPLC)
	// The defender hardens the monitoring-and-control system proper;
	// the attacker's corporate entry point is outside the design space.
	inSystem := func(n topology.Node) bool { return n.Zone != topology.ZoneCorporate }
	var chosen []topology.NodeID
	switch strategy {
	case StrategyRandom:
		chosen = diversity.PlaceRandom(cs.Topo, a, exploits.ClassOS, exploits.OSHardened, k, r, inSystem)
	case StrategyStrategic:
		chosen = diversity.PlaceStrategic(cs.Topo, a, exploits.ClassOS, exploits.OSHardened, k, entries, targets, inSystem)
	case StrategyWorst:
		chosen = diversity.PlaceWorst(cs.Topo, a, exploits.ClassOS, exploits.OSHardened, k, entries, targets, inSystem)
	default:
		return nil, fmt.Errorf("%w: unknown strategy %d", ErrBadCaseStudy, strategy)
	}
	// When k exceeds the OS-carrying control/monitoring nodes, the
	// remaining budget hardens PLCs (resilient firmware + diversified
	// protocol stack).
	if len(chosen) < k {
		plcs := cs.Topo.NodesOfKind(topology.KindPLC)
		if strategy == StrategyRandom {
			r.Shuffle(len(plcs), func(i, j int) { plcs[i], plcs[j] = plcs[j], plcs[i] })
		}
		for i := 0; i < len(plcs) && len(chosen) < k; i++ {
			a.Set(plcs[i], exploits.ClassProtocol, exploits.ProtoModbusDiv)
			a.Set(plcs[i], exploits.ClassPLCFirmware, exploits.PLCModicon)
			chosen = append(chosen, plcs[i])
		}
	}
	return a, nil
}

// OptimizePlacement runs the cost-balanced greedy planner (the paper's
// "balanced approach between secure system design and diversification
// costs") on the cooling system: candidate moves are hardening each
// workstation OS (cost nodeCost) and upgrading each PLC's protocol +
// firmware stack (cost plcCost); the metric is the Monte-Carlo PSA
// estimate with a fixed seed. It returns the selected steps and the
// final PSA.
func (cs *CaseStudy) OptimizePlacement(budget, nodeCost, plcCost float64,
	reps int, seed uint64, horizon float64) ([]diversity.PlanStep, float64, error) {
	if reps <= 0 {
		return nil, 0, fmt.Errorf("%w: reps %d", ErrBadCaseStudy, reps)
	}
	var moves []diversity.Move
	for _, n := range cs.Topo.Nodes() {
		n := n
		if n.Zone == topology.ZoneCorporate {
			continue
		}
		if _, hasOS := n.Component(exploits.ClassOS); hasOS {
			moves = append(moves, diversity.Move{
				Name: "harden-" + n.Name, Cost: nodeCost,
				Apply: func(a *diversity.Assignment) {
					a.Set(n.ID, exploits.ClassOS, exploits.OSHardened)
				},
			})
		}
		if n.Kind == topology.KindPLC {
			moves = append(moves, diversity.Move{
				Name: "upgrade-" + n.Name, Cost: plcCost,
				Apply: func(a *diversity.Assignment) {
					a.Set(n.ID, exploits.ClassProtocol, exploits.ProtoModbusDiv)
					a.Set(n.ID, exploits.ClassPLCFirmware, exploits.PLCModicon)
				},
			})
		}
	}
	metric := func(a *diversity.Assignment) (float64, error) {
		outs, err := des.Replicate(des.SplitStreams(seed, reps), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
			return cs.EvaluateSAN(a, r, horizon)
		})
		if err != nil {
			return 0, err
		}
		succ := 0
		for _, o := range outs {
			if o.Success {
				succ++
			}
		}
		return float64(succ) / float64(reps), nil
	}
	return diversity.GreedyPlan(nil, moves, budget, metric)
}

// PlacementExperiment runs the E7 grid: for every k in resilientCounts ×
// strategy, estimate PSA and mean TTA over reps replications with the
// given horizon. Replications are deterministic in seed.
func (cs *CaseStudy) PlacementExperiment(resilientCounts []int, strategies []Strategy,
	reps int, seed uint64, horizon float64) ([]PlacementCell, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("%w: reps %d", ErrBadCaseStudy, reps)
	}
	var cells []PlacementCell
	for _, k := range resilientCounts {
		for _, strat := range strategies {
			outs, err := des.Replicate(des.SplitStreams(seed^uint64(k*31+int(strat)), reps), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
				assign, err := cs.PlacementAssignment(k, strat, r)
				if err != nil {
					return indicators.Outcome{}, err
				}
				return cs.EvaluateSAN(assign, r, horizon)
			})
			if err != nil {
				return nil, err
			}
			succ := 0
			ttaSum := 0.0
			for _, o := range outs {
				if o.Success {
					succ++
					ttaSum += o.TTA
				}
			}
			cell := PlacementCell{Resilient: k, Strategy: strat, N: reps,
				PSuccess: float64(succ) / float64(reps), MeanTTA: math.NaN()}
			if succ > 0 {
				cell.MeanTTA = ttaSum / float64(succ)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

package scope

import (
	"errors"
	"math"
	"testing"

	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

func TestCoolingTopologyShape(t *testing.T) {
	topo := NewCoolingTopology()
	if got := len(topo.NodesOfKind(topology.KindPLC)); got != PLCCount {
		t.Fatalf("PLCs = %d, want %d", got, PLCCount)
	}
	if got := len(topo.NodesOfKind(topology.KindEngWorkstation)); got != 2 {
		t.Fatalf("control nodes = %d, want 2", got)
	}
	if got := len(topo.NodesOfKind(topology.KindHistorian)); got != 1 {
		t.Fatalf("monitoring nodes = %d, want 1", got)
	}
	// Attack path exists from campus entry to every PLC.
	campus := topo.NodesOfKind(topology.KindCorporatePC)[0]
	for _, plc := range topo.NodesOfKind(topology.KindPLC) {
		if !topo.Reachable(campus, plc, exploits.VectorUSB, exploits.VectorRemote) {
			t.Fatalf("PLC %d unreachable from campus", plc)
		}
	}
}

func TestEvaluateSANBaseline(t *testing.T) {
	cs := NewCaseStudy()
	outs, err := des.Replicate(des.SplitStreams(1, 80), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
		return cs.EvaluateSAN(nil, r, 720)
	})
	if err != nil {
		t.Fatal(err)
	}
	iv, err := indicators.SuccessProbability(outs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// The undefended monoculture must be very attackable.
	if iv.Point < 0.6 {
		t.Fatalf("baseline PSA = %v, expected > 0.6", iv.Point)
	}
	// TTAs are positive and below the horizon.
	for _, o := range outs {
		if o.Success && (o.TTA <= 0 || o.TTA > 720) {
			t.Fatalf("TTA = %v", o.TTA)
		}
	}
}

func TestEvaluateSANHorizonValidation(t *testing.T) {
	cs := NewCaseStudy()
	if _, err := cs.EvaluateSAN(nil, rng.New(1), 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestHardeningLowersPSA(t *testing.T) {
	cs := NewCaseStudy()
	run := func(assign *diversity.Assignment) float64 {
		outs, err := des.Replicate(des.SplitStreams(7, 80), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
			return cs.EvaluateSAN(assign, r, 720)
		})
		if err != nil {
			t.Fatal(err)
		}
		iv, err := indicators.SuccessProbability(outs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		return iv.Point
	}
	base := run(nil)
	hardened, err := cs.PlacementAssignment(3, StrategyStrategic, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	strong := run(hardened)
	if strong >= base {
		t.Fatalf("hardening did not lower PSA: base=%v hardened=%v", base, strong)
	}
	if base-strong < 0.2 {
		t.Fatalf("paper claim not reproduced: base=%v hardened=%v", base, strong)
	}
}

func TestPlacementExperimentGrid(t *testing.T) {
	cs := NewCaseStudy()
	cells, err := cs.PlacementExperiment([]int{0, 2}, []Strategy{StrategyRandom, StrategyStrategic}, 40, 5, 720)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	byKey := map[string]PlacementCell{}
	for _, c := range cells {
		byKey[c.Strategy.String()+string(rune('0'+c.Resilient))] = c
	}
	// k=0 is strategy-independent and near the baseline.
	if math.Abs(byKey["random0"].PSuccess-byKey["strategic0"].PSuccess) > 0.15 {
		t.Fatalf("k=0 cells differ: %+v", cells)
	}
	// Strategic k=2 must beat (or match) random k=2 and be well below
	// the k=0 baseline — the paper's central claim.
	if byKey["strategic2"].PSuccess > byKey["random2"].PSuccess+0.1 {
		t.Fatalf("strategic placement worse than random: %+v vs %+v",
			byKey["strategic2"], byKey["random2"])
	}
	if byKey["strategic0"].PSuccess-byKey["strategic2"].PSuccess < 0.2 {
		t.Fatalf("two strategic components did not materially lower PSA: %+v", cells)
	}
	if _, err := cs.PlacementExperiment([]int{1}, []Strategy{StrategyRandom}, 0, 1, 10); err == nil {
		t.Fatal("zero reps accepted")
	}
}

// A replication that cannot run must fail the experiment, not count as
// a defended replication.
func TestPlacementExperimentRejectsBadInputs(t *testing.T) {
	cs := NewCaseStudy()
	cells, err := cs.PlacementExperiment([]int{1}, []Strategy{Strategy(99)}, 4, 1, 720)
	if !errors.Is(err, ErrBadCaseStudy) {
		t.Fatalf("unknown strategy: cells %+v, err %v; want ErrBadCaseStudy", cells, err)
	}
	cells, err = cs.PlacementExperiment([]int{1}, []Strategy{StrategyRandom}, 4, 1, 0)
	if !errors.Is(err, ErrBadCaseStudy) {
		t.Fatalf("zero horizon: cells %+v, err %v; want ErrBadCaseStudy", cells, err)
	}
}

func TestPlacementAssignmentStrategies(t *testing.T) {
	cs := NewCaseStudy()
	for _, strat := range []Strategy{StrategyRandom, StrategyStrategic, StrategyWorst} {
		a, err := cs.PlacementAssignment(2, strat, rng.New(1))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		hardened := 0
		for _, n := range cs.Topo.Nodes() {
			if v, ok := a.Lookup(n.ID, exploits.ClassOS); ok && v == exploits.OSHardened {
				hardened++
			}
		}
		if hardened != 2 {
			t.Fatalf("%v hardened %d nodes, want 2", strat, hardened)
		}
	}
	if _, err := cs.PlacementAssignment(1, Strategy(99), rng.New(1)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// k=0 yields an empty overlay.
	a, err := cs.PlacementAssignment(0, StrategyRandom, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cs.Topo.Nodes() {
		if _, ok := a.Lookup(n.ID, exploits.ClassOS); ok {
			t.Fatal("k=0 assignment not empty")
		}
	}
}

func TestFullSimCouplesAttackToPhysics(t *testing.T) {
	cs := NewCaseStudy()
	// Spoofed attacks: damage accrues, alarms suppressed.
	var spoofDamage, alarmedDamage float64
	var sawSpoofedSuccess, sawAlarmedSuccess bool
	for rep := 0; rep < 30 && !(sawSpoofedSuccess && sawAlarmedSuccess); rep++ {
		r := rng.New(uint64(100 + rep))
		spoofed, err := cs.EvaluateFullSim(nil, r, 400, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if spoofed.Outcome.Success && !sawSpoofedSuccess {
			sawSpoofedSuccess = true
			spoofDamage = spoofed.Damage
			if spoofed.Alarmed {
				t.Fatalf("alarm fired despite certain spoofing: %+v", spoofed)
			}
		}
		r2 := rng.New(uint64(100 + rep))
		loud, err := cs.EvaluateFullSim(nil, r2, 400, 0.0)
		if err != nil {
			t.Fatal(err)
		}
		if loud.Outcome.Success && !sawAlarmedSuccess {
			sawAlarmedSuccess = true
			alarmedDamage = loud.Damage
			if !loud.Alarmed {
				t.Fatalf("no alarm without spoofing on a successful attack: %+v", loud)
			}
			if loud.Outcome.TTSF < loud.Outcome.TTA {
				t.Fatalf("alarm before attack: TTSF=%v TTA=%v", loud.Outcome.TTSF, loud.Outcome.TTA)
			}
		}
	}
	if !sawSpoofedSuccess || !sawAlarmedSuccess {
		t.Fatal("no successful attack observed in 30 replications")
	}
	if spoofDamage <= 0 || alarmedDamage <= 0 {
		t.Fatalf("successful attacks caused no damage: %v / %v", spoofDamage, alarmedDamage)
	}
}

func TestFullSimNoAttackNoDamage(t *testing.T) {
	cs := NewCaseStudy()
	// Fully hardened assignment: attack never succeeds; plant stays
	// healthy and silent.
	a := diversity.NewAssignment()
	a.SetClassEverywhere(cs.Topo, exploits.ClassOS, exploits.OSHardened)
	a.SetClassEverywhere(cs.Topo, exploits.ClassPLCFirmware, exploits.PLCABB)
	a.SetClassEverywhere(cs.Topo, exploits.ClassProtocol, exploits.ProtoModbusDiv)
	res, err := cs.EvaluateFullSim(a, rng.New(5), 200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Success {
		t.Skip("hardened attack succeeded on this seed; acceptable tail event")
	}
	if res.Damage > 0.01 || res.Alarmed {
		t.Fatalf("healthy plant shows damage/alarm: %+v", res)
	}
}

func TestStrategyStringer(t *testing.T) {
	if StrategyRandom.String() != "random" || StrategyStrategic.String() != "strategic" ||
		StrategyWorst.String() != "worst" || Strategy(9).String() == "" {
		t.Fatal("strategy stringer broken")
	}
}

func BenchmarkEvaluateSAN(b *testing.B) {
	cs := NewCaseStudy()
	for i := 0; i < b.N; i++ {
		if _, err := cs.EvaluateSAN(nil, rng.New(uint64(i)), 720); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSim(b *testing.B) {
	cs := NewCaseStudy()
	for i := 0; i < b.N; i++ {
		if _, err := cs.EvaluateFullSim(nil, rng.New(uint64(i)), 100, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOptimizePlacementFindsCutSet(t *testing.T) {
	cs := NewCaseStudy()
	// Budget for exactly two workstation hardenings; PLC upgrades are
	// deliberately overpriced so the planner must find the cheap win.
	steps, finalPSA, err := cs.OptimizePlacement(20, 10, 100, 50, 3, 720)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("planner selected nothing")
	}
	// The greedy plan must discover the control-node cut set and drive
	// PSA near zero within budget.
	if finalPSA > 0.1 {
		t.Fatalf("final PSA = %v, want ~0 (steps: %+v)", finalPSA, steps)
	}
	names := map[string]bool{}
	for _, s := range steps {
		names[s.Move.Name] = true
	}
	if !names["harden-control-0"] || !names["harden-control-1"] {
		t.Fatalf("planner did not pick the control nodes: %+v", steps)
	}
}

func TestOptimizePlacementValidation(t *testing.T) {
	cs := NewCaseStudy()
	if _, _, err := cs.OptimizePlacement(10, 1, 1, 0, 1, 720); err == nil {
		t.Fatal("zero reps accepted")
	}
}

func TestOptimizePlacementRejectsZeroHorizon(t *testing.T) {
	cs := NewCaseStudy()
	steps, psa, err := cs.OptimizePlacement(10, 1, 1, 4, 1, 0)
	if !errors.Is(err, ErrBadCaseStudy) {
		t.Fatalf("zero horizon: steps %+v, PSA %v, err %v; want ErrBadCaseStudy", steps, psa, err)
	}
}

func TestOptimizePlacementZeroBudget(t *testing.T) {
	cs := NewCaseStudy()
	steps, psa, err := cs.OptimizePlacement(0, 10, 10, 30, 1, 720)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Fatalf("zero budget bought moves: %+v", steps)
	}
	if psa < 0.5 {
		t.Fatalf("baseline PSA = %v, suspiciously low", psa)
	}
}

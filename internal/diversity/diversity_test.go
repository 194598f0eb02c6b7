package diversity

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"diversify/internal/exploits"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

func testTopo() *topology.Topology {
	return topology.NewTieredSCADA(topology.DefaultTieredSpec())
}

func TestAssignmentOverlay(t *testing.T) {
	topo := testTopo()
	a := NewAssignment()
	plcs := topo.NodesOfKind(topology.KindPLC)
	a.Set(plcs[0], exploits.ClassPLCFirmware, exploits.PLCModicon)

	n0, err := topo.Node(plcs[0])
	if err != nil {
		t.Fatal(err)
	}
	n1, err := topo.Node(plcs[1])
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := EffectiveVariant(a, n0, exploits.ClassPLCFirmware); !ok || v != exploits.PLCModicon {
		t.Fatalf("overlay not applied: %v %v", v, ok)
	}
	if v, ok := EffectiveVariant(a, n1, exploits.ClassPLCFirmware); !ok || v != exploits.PLCS7_315 {
		t.Fatalf("default lost: %v %v", v, ok)
	}
	// Nil assignment falls through to defaults.
	if v, ok := EffectiveVariant(nil, n1, exploits.ClassPLCFirmware); !ok || v != exploits.PLCS7_315 {
		t.Fatalf("nil assignment broken: %v %v", v, ok)
	}
	// Func adapter matches Lookup.
	f := a.Func()
	if v, ok := f(n0, exploits.ClassPLCFirmware); !ok || v != exploits.PLCModicon {
		t.Fatalf("Func adapter: %v %v", v, ok)
	}
}

func TestClone(t *testing.T) {
	a := NewAssignment()
	a.Set(1, exploits.ClassOS, exploits.OSWin7)
	b := a.Clone()
	b.Set(1, exploits.ClassOS, exploits.OSLinuxHMI)
	if v, _ := a.Lookup(1, exploits.ClassOS); v != exploits.OSWin7 {
		t.Fatal("Clone shares state with original")
	}
}

func TestSetClassEverywhere(t *testing.T) {
	topo := testTopo()
	a := NewAssignment().SetClassEverywhere(topo, exploits.ClassOS, exploits.OSWin7)
	if counts := osCensus(topo, a); len(counts) != 1 || counts[exploits.OSWin7] == 0 {
		t.Fatalf("OS census = %v, want only %s", counts, exploits.OSWin7)
	}
	// Nodes without the class stay untouched.
	for _, id := range topo.NodesOfKind(topology.KindPLC) {
		if _, ok := a.Lookup(id, exploits.ClassOS); ok {
			t.Fatal("PLC received an OS assignment")
		}
	}
}

func TestCostModel(t *testing.T) {
	topo := testTopo()
	cm := CostModel{PlatformCost: 100, NodeCost: 10}
	if got := cm.Cost(topo, nil); got != 0 {
		t.Fatalf("default config cost = %v, want 0", got)
	}
	a := NewAssignment()
	plcs := topo.NodesOfKind(topology.KindPLC)
	a.Set(plcs[0], exploits.ClassPLCFirmware, exploits.PLCModicon)
	// One extra platform (Modicon beside S7) + one migrated node.
	if got := cm.Cost(topo, a); got != 110 {
		t.Fatalf("cost = %v, want 110", got)
	}
	// Assigning the default variant is free.
	b := NewAssignment()
	b.Set(plcs[0], exploits.ClassPLCFirmware, exploits.PLCS7_315)
	if got := cm.Cost(topo, b); got != 0 {
		t.Fatalf("no-op assignment cost = %v", got)
	}
}

func TestPlaceRandom(t *testing.T) {
	topo := testTopo()
	a := NewAssignment()
	chosen := PlaceRandom(topo, a, exploits.ClassOS, exploits.OSHardened, 3, rng.New(1), nil)
	if len(chosen) != 3 {
		t.Fatalf("chosen = %v", chosen)
	}
	for _, id := range chosen {
		if v, ok := a.Lookup(id, exploits.ClassOS); !ok || v != exploits.OSHardened {
			t.Fatalf("node %d not hardened", id)
		}
	}
	// k larger than population clamps.
	b := NewAssignment()
	all := PlaceRandom(topo, b, exploits.ClassOS, exploits.OSHardened, 10000, rng.New(2), nil)
	carried := 0
	for _, n := range topo.Nodes() {
		if _, has := n.Component(exploits.ClassOS); has {
			carried++
		}
	}
	if len(all) != carried {
		t.Fatalf("clamp failed: chose %d of %d", len(all), carried)
	}
}

func TestPlaceRandomFilter(t *testing.T) {
	topo := testTopo()
	a := NewAssignment()
	onlyControl := func(n topology.Node) bool { return n.Zone == topology.ZoneControl }
	chosen := PlaceRandom(topo, a, exploits.ClassOS, exploits.OSHardened, 100, rng.New(1), onlyControl)
	if len(chosen) == 0 {
		t.Fatal("filter excluded everything")
	}
	for _, id := range chosen {
		n, err := topo.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Zone != topology.ZoneControl {
			t.Fatalf("filtered placement chose zone %v", n.Zone)
		}
	}
}

func TestPlaceStrategicPrefersCutNodes(t *testing.T) {
	topo := testTopo()
	entries := topo.NodesOfKind(topology.KindCorporatePC)
	targets := topo.NodesOfKind(topology.KindPLC)
	a := NewAssignment()
	chosen := PlaceStrategic(topo, a, exploits.ClassOS, exploits.OSHardened, 2, entries, targets, nil)
	if len(chosen) != 2 {
		t.Fatalf("chosen = %v", chosen)
	}
	// The strategic picks must score at least as high as any non-chosen
	// candidate.
	scores := topo.OnPathScores(entries, targets)
	cuts := map[topology.NodeID]bool{}
	for _, id := range topo.ArticulationPoints() {
		cuts[id] = true
	}
	score := func(id topology.NodeID) float64 {
		s := float64(scores[id])
		if cuts[id] {
			s += 1000
		}
		return s
	}
	minChosen := math.Inf(1)
	for _, id := range chosen {
		minChosen = math.Min(minChosen, score(id))
	}
	for _, n := range topo.Nodes() {
		if _, has := n.Component(exploits.ClassOS); !has {
			continue
		}
		isChosen := false
		for _, id := range chosen {
			if id == n.ID {
				isChosen = true
			}
		}
		if !isChosen && score(n.ID) > minChosen {
			t.Fatalf("node %d (score %v) outranks a strategic pick (min %v)",
				n.ID, score(n.ID), minChosen)
		}
	}
}

func TestPlaceWorstAvoidsCutNodes(t *testing.T) {
	topo := testTopo()
	entries := topo.NodesOfKind(topology.KindCorporatePC)
	targets := topo.NodesOfKind(topology.KindPLC)
	aStrategic := NewAssignment()
	aWorst := NewAssignment()
	s := PlaceStrategic(topo, aStrategic, exploits.ClassOS, exploits.OSHardened, 1, entries, targets, nil)
	w := PlaceWorst(topo, aWorst, exploits.ClassOS, exploits.OSHardened, 1, entries, targets, nil)
	if len(s) != 1 || len(w) != 1 || s[0] == w[0] {
		t.Fatalf("strategic %v and worst %v should differ", s, w)
	}
}

// osCensus counts the OS variants the plant runs under a.
func osCensus(topo *topology.Topology, a *Assignment) map[exploits.VariantID]int {
	counts := map[exploits.VariantID]int{}
	a.Each(topo, func(_ topology.NodeID, c exploits.Class, _, v exploits.VariantID) {
		if c == exploits.ClassOS {
			counts[v]++
		}
	})
	return counts
}

func TestSpreadVariants(t *testing.T) {
	topo := testTopo()
	cat := exploits.StuxnetCatalog()
	a := NewAssignment()
	if err := SpreadVariants(topo, a, cat, exploits.ClassOS, 3); err != nil {
		t.Fatal(err)
	}
	counts := osCensus(topo, a)
	if len(counts) != 3 {
		t.Fatalf("distinct = %d, want 3", len(counts))
	}
	// Round-robin keeps counts balanced within 1.
	min, max := math.MaxInt32, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced spread: %v", counts)
	}
	// Error paths.
	if err := SpreadVariants(topo, a, cat, exploits.ClassOS, 0); !errors.Is(err, ErrBadAssignment) {
		t.Fatal("k=0 accepted")
	}
	if err := SpreadVariants(topo, a, cat, exploits.ClassOS, 99); !errors.Is(err, ErrBadAssignment) {
		t.Fatal("k beyond catalog accepted")
	}
}

// Property: spreading k variants puts exactly k distinct variants in use,
// against one for the monoculture (k=1).
func TestQuickSpreadIncreasesDiversity(t *testing.T) {
	topo := testTopo()
	cat := exploits.StuxnetCatalog()
	f := func(kRaw uint8) bool {
		k := int(kRaw%4) + 1
		mono := NewAssignment()
		if err := SpreadVariants(topo, mono, cat, exploits.ClassOS, 1); err != nil {
			return false
		}
		multi := NewAssignment()
		if err := SpreadVariants(topo, multi, cat, exploits.ClassOS, k); err != nil {
			return false
		}
		return len(osCensus(topo, mono)) == 1 && len(osCensus(topo, multi)) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPlanSyntheticMetric(t *testing.T) {
	// Metric: 1.0 minus 0.4 for move A applied, minus 0.1 for move B,
	// minus 0.05 for C. Costs: A=2, B=1, C=1.
	applied := func(a *Assignment, n topology.NodeID) bool {
		_, ok := a.Lookup(n, exploits.ClassOS)
		return ok
	}
	moves := []Move{
		{Name: "A", Cost: 2, Apply: func(a *Assignment) { a.Set(1, exploits.ClassOS, "x") }},
		{Name: "B", Cost: 1, Apply: func(a *Assignment) { a.Set(2, exploits.ClassOS, "x") }},
		{Name: "C", Cost: 1, Apply: func(a *Assignment) { a.Set(3, exploits.ClassOS, "x") }},
	}
	metric := func(a *Assignment) (float64, error) {
		v := 1.0
		if applied(a, 1) {
			v -= 0.4
		}
		if applied(a, 2) {
			v -= 0.1
		}
		if applied(a, 3) {
			v -= 0.05
		}
		return v, nil
	}
	// Budget 3: best ratio is A (0.2/unit), then B (0.1/unit); C doesn't fit.
	steps, final, err := GreedyPlan(nil, moves, 3, metric)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0].Move.Name != "A" || steps[1].Move.Name != "B" {
		t.Fatalf("steps = %+v", steps)
	}
	if final != 0.5 {
		t.Fatalf("final metric = %v, want 0.5", final)
	}
	if steps[1].SpentAfter != 3 {
		t.Fatalf("spend accounting wrong: %+v", steps[1])
	}
}

func TestGreedyPlanStopsWhenNoImprovement(t *testing.T) {
	moves := []Move{{Name: "useless", Cost: 1, Apply: func(a *Assignment) { a.Set(1, exploits.ClassOS, "x") }}}
	metric := func(*Assignment) (float64, error) { return 0.7, nil }
	steps, final, err := GreedyPlan(nil, moves, 10, metric)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 || final != 0.7 {
		t.Fatalf("selected useless move: %+v %v", steps, final)
	}
}

func TestGreedyPlanValidation(t *testing.T) {
	metric := func(*Assignment) (float64, error) { return 1, nil }
	if _, _, err := GreedyPlan(nil, nil, 1, metric); !errors.Is(err, ErrBadPlan) {
		t.Fatal("empty moves accepted")
	}
	if _, _, err := GreedyPlan(nil, []Move{{Name: "x", Cost: 1}}, 1, nil); !errors.Is(err, ErrBadPlan) {
		t.Fatal("nil metric accepted")
	}
	if _, _, err := GreedyPlan(nil, []Move{{Name: "x", Cost: -1, Apply: func(*Assignment) {}}}, 1, metric); !errors.Is(err, ErrBadPlan) {
		t.Fatal("negative cost accepted")
	}
	if _, _, err := GreedyPlan(nil, []Move{{Name: "x", Cost: 1, Apply: func(*Assignment) {}}}, -1, metric); !errors.Is(err, ErrBadPlan) {
		t.Fatal("negative budget accepted")
	}
}

func TestGreedyPlanDoesNotMutateBase(t *testing.T) {
	base := NewAssignment()
	moves := []Move{{Name: "m", Cost: 1, Apply: func(a *Assignment) { a.Set(5, exploits.ClassOS, "x") }}}
	metric := func(a *Assignment) (float64, error) {
		if _, ok := a.Lookup(5, exploits.ClassOS); ok {
			return 0, nil
		}
		return 1, nil
	}
	if _, _, err := GreedyPlan(base, moves, 5, metric); err != nil {
		t.Fatal(err)
	}
	if _, ok := base.Lookup(5, exploits.ClassOS); ok {
		t.Fatal("GreedyPlan mutated the base assignment")
	}
}

func TestGreedyPlanPairLookahead(t *testing.T) {
	// Complementary moves: neither A nor B alone improves the metric,
	// only both together (a redundant-pair cut set). Single-step greedy
	// stalls; the pair lookahead must find it.
	has := func(a *Assignment, n topology.NodeID) bool {
		_, ok := a.Lookup(n, exploits.ClassOS)
		return ok
	}
	moves := []Move{
		{Name: "A", Cost: 1, Apply: func(a *Assignment) { a.Set(1, exploits.ClassOS, "x") }},
		{Name: "B", Cost: 1, Apply: func(a *Assignment) { a.Set(2, exploits.ClassOS, "x") }},
		{Name: "decoy", Cost: 1, Apply: func(a *Assignment) { a.Set(3, exploits.ClassOS, "x") }},
	}
	metric := func(a *Assignment) (float64, error) {
		if has(a, 1) && has(a, 2) {
			return 0.1, nil
		}
		return 1.0, nil
	}
	steps, final, err := GreedyPlan(nil, moves, 2, metric)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || final != 0.1 {
		t.Fatalf("pair not found: steps=%+v final=%v", steps, final)
	}
	names := steps[0].Move.Name + steps[1].Move.Name
	if names != "AB" {
		t.Fatalf("wrong pair: %v", names)
	}
}

func TestGreedyPlanPairRespectsBudget(t *testing.T) {
	moves := []Move{
		{Name: "A", Cost: 5, Apply: func(a *Assignment) { a.Set(1, exploits.ClassOS, "x") }},
		{Name: "B", Cost: 5, Apply: func(a *Assignment) { a.Set(2, exploits.ClassOS, "x") }},
	}
	metric := func(a *Assignment) (float64, error) {
		if _, ok1 := a.Lookup(1, exploits.ClassOS); ok1 {
			if _, ok2 := a.Lookup(2, exploits.ClassOS); ok2 {
				return 0, nil
			}
		}
		return 1, nil
	}
	// Budget 9 cannot afford the pair (cost 10).
	steps, final, err := GreedyPlan(nil, moves, 9, metric)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 || final != 1 {
		t.Fatalf("overspent: steps=%+v final=%v", steps, final)
	}
}

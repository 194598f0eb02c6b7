package optimize

import (
	"fmt"
	"testing"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/rotation"
	"diversify/internal/topology"
)

// rotatedProblem is the reference tiered problem plus a schedule
// dimension.
func rotatedProblem(seed uint64) Problem {
	p := testProblem(seed)
	p.Rotations = []rotation.Spec{
		{Kind: rotation.Triggered, Period: 48},
		{Kind: rotation.Periodic, Period: 24, Batch: 2, Downtime: 2},
	}
	return p
}

// The schedule dimension must preserve the determinism contract: same
// seed and configuration reproduce the identical trace, winner and
// schedule for every worker count.
func TestScheduleSearchDeterministic(t *testing.T) {
	for _, name := range []string{"greedy", "anneal", "pareto", "portfolio"} {
		o, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			var want string
			for i, workers := range []int{1, 1, 4} {
				p := rotatedProblem(11)
				p.Reps = 4
				p.Iterations = 10
				p.Workers = workers
				res, err := Run(p, o)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%016x/%s/%+v/%s", res.BestFingerprint, res.BestRotation, res.Best, traceString(res.Trace))
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("workers=%d: rotated search diverged", workers)
				}
			}
		})
	}
}

// The same placement under two schedules is two candidates: distinct
// cache rows, distinct fingerprints, distinct scores.
func TestScheduleFingerprintsDistinct(t *testing.T) {
	p := rotatedProblem(3)
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	a := p.base()
	static := Candidate{A: a, Rot: -1}
	rot0 := Candidate{A: a, Rot: 0}
	rot1 := Candidate{A: a, Rot: 1}
	fps := map[uint64]bool{}
	for _, c := range []Candidate{static, rot0, rot1} {
		fp := c.fingerprint(ev.rotFPs)
		if fps[fp] {
			t.Fatalf("candidate %+v shares a fingerprint", c)
		}
		fps[fp] = true
		if _, err := ev.Score(c); err != nil {
			t.Fatal(err)
		}
	}
	if ev.misses != 3 || ev.hits != 0 {
		t.Fatalf("3 schedule-distinct candidates produced %d misses / %d hits", ev.misses, ev.hits)
	}
	// Rotation must change the measured outcome (the periodic schedule
	// definitely rotates on the tiered plant).
	s0, _ := ev.Score(static)
	s1, _ := ev.Score(rot1)
	if s1.MeanRotations == 0 {
		t.Fatal("periodic schedule candidate measured zero rotations")
	}
	if s0.MeanRotations != 0 {
		t.Fatal("static candidate measured rotations")
	}
	// And the schedule's planned cost must be priced in.
	if s1.Cost != s0.Cost+p.Rotations[1].PlannedCost(p.Horizon) {
		t.Fatalf("schedule cost not folded into candidate cost: %.1f vs %.1f", s1.Cost, s0.Cost)
	}
}

// The greedy schedule switch and the repair path must keep every
// emitted candidate affordable; the best candidate may carry a
// schedule, and its planned rotation cost counts against the budget.
func TestScheduleBudgetFolded(t *testing.T) {
	p := rotatedProblem(5)
	p.Reps = 4
	p.Iterations = 12
	for _, name := range []string{"greedy", "anneal", "genetic"} {
		o, _ := ByName(name)
		res, err := Run(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Cost > p.Budget+budgetEps {
			t.Errorf("%s: best cost %.2f over budget", name, res.Best.Cost)
		}
		for i, pt := range res.Pareto {
			if pt.Cost > p.Budget+budgetEps {
				t.Errorf("%s: front point %d cost %.2f over budget", name, i, pt.Cost)
			}
		}
	}
}

// checkMaxPerZone independently recounts distinct effective variants
// per (zone, class) under an assignment.
func checkMaxPerZone(t *testing.T, topo *topology.Topology, a *diversity.Assignment, k int) error {
	t.Helper()
	counts := map[zoneClass]map[exploits.VariantID]bool{}
	for _, n := range topo.Nodes() {
		for _, comp := range n.Components {
			class := comp.Class
			v, ok := diversity.EffectiveVariant(a, n, class)
			if !ok {
				continue
			}
			key := zoneClass{zone: n.Zone, class: class}
			if counts[key] == nil {
				counts[key] = map[exploits.VariantID]bool{}
			}
			counts[key][v] = true
		}
	}
	for key, set := range counts {
		if len(set) > k {
			return fmt.Errorf("zone %v class %v runs %d distinct variants (cap %d)", key.zone, key.class, len(set), k)
		}
	}
	return nil
}

// assignmentOf rebuilds an assignment from a front point's decisions.
func assignmentOf(t *testing.T, topo *topology.Topology, decisions []Decision) *diversity.Assignment {
	t.Helper()
	byName := map[string]topology.NodeID{}
	for _, n := range topo.Nodes() {
		byName[n.Name] = n.ID
	}
	classByName := map[string]exploits.Class{}
	for _, c := range []exploits.Class{exploits.ClassOS, exploits.ClassFirewall, exploits.ClassPLCFirmware,
		exploits.ClassHMISoftware, exploits.ClassEngTools, exploits.ClassProtocol, exploits.ClassHistorian} {
		classByName[c.String()] = c
	}
	a := diversity.NewAssignment()
	for _, d := range decisions {
		id, ok := byName[d.Node]
		if !ok {
			t.Fatalf("front decision names unknown node %q", d.Node)
		}
		class, ok := classByName[d.Class]
		if !ok {
			t.Fatalf("front decision names unknown class %q", d.Class)
		}
		a.Set(id, class, exploits.VariantID(d.Variant))
	}
	return a
}

// Property: with MaxPerZone set, no strategy emits a winner or a front
// point violating the per-zone distinct-variant cap, while the searches
// still improve on the baseline.
func TestMaxPerZoneProperty(t *testing.T) {
	for _, o := range strategies(t) {
		for seed := uint64(1); seed <= 2; seed++ {
			p := testProblem(seed)
			p.Reps = 4
			p.Iterations = 12
			p.MaxPerZone = 2
			res, err := Run(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMaxPerZone(t, p.Topo, res.BestAssignment, p.MaxPerZone); err != nil {
				t.Errorf("%s seed %d: best violates MaxPerZone: %v", o.Name(), seed, err)
			}
			if res.Best.Value > res.Baseline.Value {
				t.Errorf("%s seed %d: constrained best worse than baseline", o.Name(), seed)
			}
			for i, pt := range res.Pareto {
				a := assignmentOf(t, p.Topo, pt.Decisions)
				if err := checkMaxPerZone(t, p.Topo, a, p.MaxPerZone); err != nil {
					t.Errorf("%s seed %d: front point %d violates MaxPerZone: %v", o.Name(), seed, i, err)
				}
			}
		}
	}
	// The random comparison row is a feasible fill too.
	for seed := uint64(1); seed <= 10; seed++ {
		p := testProblem(seed)
		p.MaxPerZone = 2
		a := randomFill(&p, newSearchRand(p.Seed, "random-baseline"))
		if err := checkMaxPerZone(t, p.Topo, a, p.MaxPerZone); err != nil {
			t.Errorf("seed %d: random fill violates MaxPerZone: %v", seed, err)
		}
	}
}

// MaxPerZone=1 freezes every zone at its default monoculture: the only
// feasible candidate is the baseline (plus schedules, which change no
// variants' zone census).
func TestMaxPerZoneOneFreezesPlacement(t *testing.T) {
	p := testProblem(4)
	p.Reps = 4
	p.Iterations = 10
	p.MaxPerZone = 1
	res, err := Run(p, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 0 {
		t.Fatalf("MaxPerZone=1 admitted %d placement decisions", len(res.Decisions))
	}
	if res.Random.Cost != 0 {
		t.Fatalf("MaxPerZone=1 random fill costs %.2f, want the free base", res.Random.Cost)
	}
	// An infeasible BASE is rejected up front.
	p = testProblem(4)
	p.MaxPerZone = 1
	p.Base = diversity.NewAssignment()
	p.Base.Set(p.Options[0].Node, p.Options[0].Class, p.Options[0].Variant)
	if _, err := Run(p, &Greedy{}); err == nil {
		t.Fatal("zone-infeasible base accepted")
	}
}

// Invalid rotation specs and MaxPerZone values must be rejected by
// problem validation.
func TestRotationValidation(t *testing.T) {
	o, _ := ByName("greedy")
	p := testProblem(1)
	p.Rotations = []rotation.Spec{{Kind: rotation.Periodic}} // no period
	if _, err := Run(p, o); err == nil {
		t.Fatal("invalid rotation spec accepted")
	}
	p = testProblem(1)
	p.MaxPerZone = -2
	if _, err := Run(p, o); err == nil {
		t.Fatal("negative MaxPerZone accepted")
	}
	p = testProblem(1)
	p.BaseRotation = 3 // out of range: no rotations configured
	if _, err := Run(p, o); err == nil {
		t.Fatal("out-of-range BaseRotation accepted")
	}
}

// The acceptance criterion: on the 60-substation grid under the
// min-foothold objective, the schedule-aware search finds a
// (placement, schedule) pair whose aggregate intruder dwell beats the
// static optimum at the same total budget, reproducibly under a fixed
// seed — and the static search provably cannot spend its way there
// (its winner costs a fraction of the budget).
func TestRotatedBeatsStaticFootholdGrid60(t *testing.T) {
	if testing.Short() {
		t.Skip("grid:60 search pair in -short mode")
	}
	topo := topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(60))
	cat := exploits.StuxnetCatalog()
	opts := diversity.EnumerateOptions(topo, cat,
		[]exploits.Class{exploits.ClassOS, exploits.ClassPLCFirmware, exploits.ClassProtocol},
		func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC })
	p := Problem{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
		Options:   opts,
		Cost:      diversity.CostModel{PlatformCost: 5, NodeCost: 2},
		Budget:    30,
		Objective: MinimizeFoothold,
		Horizon:   240, Reps: 16, Seed: 7,
	}
	static, err := Run(p, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	rotated := p
	rotated.Rotations = []rotation.Spec{
		{Kind: rotation.Triggered, Period: 48},
		{Kind: rotation.Adaptive, Period: 24, Batch: 2, Downtime: 2},
	}
	moving, err := Run(rotated, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if static.BestRotation != "static" {
		t.Fatalf("static search reported schedule %q", static.BestRotation)
	}
	if moving.BestRotation == "static" {
		t.Fatal("schedule-aware search did not adopt a rotation schedule")
	}
	if moving.Best.Cost > p.Budget+budgetEps {
		t.Fatalf("rotated winner cost %.1f over the shared budget", moving.Best.Cost)
	}
	if moving.Best.MeanFoothold >= static.Best.MeanFoothold {
		t.Fatalf("rotated winner foothold %.1f not below static optimum %.1f",
			moving.Best.MeanFoothold, static.Best.MeanFoothold)
	}
	if moving.Best.MeanReinfections == 0 {
		t.Fatal("rotated winner forced no re-infection churn")
	}
	// Reproducibility of the whole comparison under the fixed seed.
	again, err := Run(rotated, &Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if again.BestFingerprint != moving.BestFingerprint || again.Best != moving.Best {
		t.Fatal("rotated search not reproducible under a fixed seed")
	}
}

// epsIndicator computes the additive epsilon-indicator ε(a, b) over
// range-normalized axes: the smallest ε such that every point of b is
// weakly dominated by some point of a shifted by ε on every axis.
// ε(a, b) ≈ 0 means front a weakly dominates front b (up to ε of the
// observed axis range).
func epsIndicator(a, b [][]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	dims := len(a[0])
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	copy(lo, a[0])
	copy(hi, a[0])
	for _, front := range [][][]float64{a, b} {
		for _, v := range front {
			for i := range v {
				lo[i] = min(lo[i], v[i])
				hi[i] = max(hi[i], v[i])
			}
		}
	}
	norm := func(v float64, i int) float64 {
		if hi[i] == lo[i] {
			return 0
		}
		return (v - lo[i]) / (hi[i] - lo[i])
	}
	eps := 0.0
	for _, bv := range b {
		bestShift := -1.0
		for _, av := range a {
			shift := 0.0
			for i := range bv {
				shift = max(shift, norm(av[i], i)-norm(bv[i], i))
			}
			if bestShift < 0 || shift < bestShift {
				bestShift = shift
			}
		}
		eps = max(eps, bestShift)
	}
	return eps
}

// Seeding the NSGA-II population from the screened-greedy trajectory
// must pay off: at equal generation and population counts on a seeded
// grid:60 problem, the seeded front weakly dominates the random-init
// front.
func TestSeededParetoDominatesRandomInit(t *testing.T) {
	if testing.Short() {
		t.Skip("grid:60 pareto pair in -short mode")
	}
	topo := topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(60))
	cat := exploits.StuxnetCatalog()
	opts := diversity.EnumerateOptions(topo, cat,
		[]exploits.Class{exploits.ClassOS, exploits.ClassPLCFirmware, exploits.ClassProtocol},
		func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC })
	base := Problem{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
		Options: opts,
		Cost:    diversity.CostModel{PlatformCost: 5, NodeCost: 2},
		Budget:  40,
		Horizon: 240, Reps: 8, Seed: 7,
		Iterations: 2, Population: 8,
	}
	run := func(randomInit bool, gens int) *Result {
		p := base
		p.Iterations = gens
		res, err := Run(p, &Pareto{randomInit: randomInit})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seeded := run(false, base.Iterations)
	random := run(true, base.Iterations)
	vecs := func(front []ParetoPoint) [][]float64 {
		out := make([][]float64, len(front))
		for i, pt := range front {
			out[i] = []float64{pt.Cost, pt.PSuccess + 1e-3*pt.FinalRatio, pt.MeanDetLatency}
		}
		return out
	}
	// Weak domination up to Monte-Carlo resolution: the additive
	// epsilon-indicator of the seeded front against the random one must
	// be within 2% of the observed axis ranges (equality — both searches
	// converging on the same front — satisfies weak domination).
	fwd := epsIndicator(vecs(seeded.Pareto), vecs(random.Pareto))
	rev := epsIndicator(vecs(random.Pareto), vecs(seeded.Pareto))
	if fwd > 0.02 {
		t.Fatalf("seeded front does not weakly dominate random-init front (eps %.4f)\nseeded: %+v\nrandom: %+v",
			fwd, seeded.Pareto, random.Pareto)
	}
	t.Logf("eps(seeded,random) %.4f, eps(random,seeded) %.4f; evaluations %d vs %d; front sizes %d vs %d",
		fwd, rev, seeded.Evaluations, random.Evaluations, len(seeded.Pareto), len(random.Pareto))
}

package optimize

import (
	"slices"
	"testing"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/topology"
)

// The surrogate must rank a genuine upgrade on a choke point above the
// same upgrade on a leaf, and above downgrades anywhere; and the order
// must be a deterministic function of the problem.
func TestScreenScoresShape(t *testing.T) {
	p := testProblem(1)
	p.normalize()
	scores := screenScores(&p)
	if len(scores) != len(p.Options) {
		t.Fatalf("got %d scores for %d options", len(scores), len(p.Options))
	}
	again := screenScores(&p)
	if !slices.Equal(scores, again) {
		t.Fatal("surrogate scores not deterministic")
	}
	nodes := p.Topo.Nodes()
	cuts := map[topology.NodeID]bool{}
	for _, id := range p.Topo.ArticulationPoints() {
		cuts[id] = true
	}
	res := func(id exploits.VariantID) float64 {
		v, ok := p.Catalog.Variant(id)
		if !ok {
			t.Fatalf("unknown variant %s", id)
		}
		return v.Resilience
	}
	gain := func(opt diversity.Option) float64 {
		def, _ := nodes[opt.Node].Component(opt.Class)
		return res(opt.Variant) - res(def)
	}
	var bestCutUpgrade, bestLeafUpgrade, bestDowngrade float64
	seenCut, seenLeaf, seenDown := false, false, false
	for i, opt := range p.Options {
		g := gain(opt)
		switch {
		case g > 0 && cuts[opt.Node]:
			if !seenCut || scores[i] > bestCutUpgrade {
				bestCutUpgrade, seenCut = scores[i], true
			}
		case g > 0:
			if !seenLeaf || scores[i] > bestLeafUpgrade {
				bestLeafUpgrade, seenLeaf = scores[i], true
			}
		case g < 0:
			if !seenDown || scores[i] > bestDowngrade {
				bestDowngrade, seenDown = scores[i], true
			}
		}
	}
	if !seenCut || !seenLeaf || !seenDown {
		t.Fatal("option space lacks cut-node upgrades, leaf upgrades or downgrades to compare")
	}
	if bestCutUpgrade <= bestLeafUpgrade {
		t.Errorf("cut-node upgrade (%.3f) not ranked above leaf upgrade (%.3f)", bestCutUpgrade, bestLeafUpgrade)
	}
	if bestDowngrade >= 0 {
		t.Errorf("downgrade scored %.3f, want negative", bestDowngrade)
	}
}

// screenOrder semantics: index-ascending output, full space for small
// problems and pinned/disabled overrides, default quarter for large.
func TestScreenOrder(t *testing.T) {
	p := testProblem(1)
	p.normalize()
	small := screenOrder(&p)
	if len(small) != len(p.Options) {
		t.Fatalf("small option space screened to %d of %d", len(small), len(p.Options))
	}
	p.ScreenTop = 5
	pinned := screenOrder(&p)
	if len(pinned) != 5 || !slices.IsSorted(pinned) {
		t.Fatalf("pinned screen order %v", pinned)
	}
	p.ScreenTop = -1
	if got := screenOrder(&p); len(got) != len(p.Options) {
		t.Fatalf("disabled screening kept %d of %d", len(got), len(p.Options))
	}
	// Default K on a synthetic large space: a quarter, floored at 24.
	p.ScreenTop = 0
	big := Problem{Options: make([]diversity.Option, 400)}
	if k := big.screenTop(); k != 100 {
		t.Fatalf("default K for 400 options = %d, want 100", k)
	}
	mid := Problem{Options: make([]diversity.Option, 60)}
	if k := mid.screenTop(); k != 24 {
		t.Fatalf("default K for 60 options = %d, want 24", k)
	}
}

// The acceptance property: on the 200-substation grid, greedy with the
// default screen simulates at most half the options per round yet lands
// on the exact incumbent (same fingerprint, same score) the exhaustive
// scan finds.
func TestScreenedGreedyMatchesGrid200(t *testing.T) {
	if testing.Short() {
		t.Skip("grid:200 greedy pair in -short mode")
	}
	topo := topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(200))
	cat := exploits.StuxnetCatalog()
	opts := diversity.EnumerateOptions(topo, cat,
		[]exploits.Class{exploits.ClassOS, exploits.ClassPLCFirmware, exploits.ClassProtocol},
		func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC })
	run := func(screen int) *Result {
		p := gridProblem()
		p.Topo, p.Options = topo, opts
		p.Budget = 20
		p.Reps, p.Seed = 6, 11
		p.Iterations = 2
		p.ScreenTop = screen
		res, err := Run(p, &Greedy{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(-1)
	screened := run(0)
	if screened.BestFingerprint != full.BestFingerprint {
		t.Fatalf("screened incumbent %016x != unscreened %016x",
			screened.BestFingerprint, full.BestFingerprint)
	}
	if screened.Best != full.Best {
		t.Fatalf("screened best %+v != unscreened %+v", screened.Best, full.Best)
	}
	if 2*screened.Evaluations > full.Evaluations {
		t.Fatalf("screening simulated %d of %d candidates, want at most half",
			screened.Evaluations, full.Evaluations)
	}
}

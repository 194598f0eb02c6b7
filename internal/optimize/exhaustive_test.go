package optimize

import (
	"testing"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/topology"
)

// exhaustiveProblem is a static instance small enough to enumerate: OS
// switches on the tiered plant's two engineering workstations and its
// historian (12 options, 5³ = 125 placements), at a budget that buys
// one hardened platform on at most two of them.
func exhaustiveProblem() Problem {
	p := testProblem(1)
	p.Options = diversity.EnumerateOptions(p.Topo, p.Catalog, []exploits.Class{exploits.ClassOS},
		func(n topology.Node) bool {
			return n.Kind == topology.KindEngWorkstation || n.Kind == topology.KindHistorian
		})
	p.Budget = 9
	p.Reps = 16
	return p
}

// enumeratePlacements lists every placement over an option space: each
// (node, class) slot keeps its topology default or takes one of its
// options. Options arrive sorted, so a slot's options are adjacent.
func enumeratePlacements(opts []diversity.Option) []*diversity.Assignment {
	out := []*diversity.Assignment{diversity.NewAssignment()}
	for lo := 0; lo < len(opts); {
		hi := lo + 1
		for hi < len(opts) && opts[hi].Node == opts[lo].Node && opts[hi].Class == opts[lo].Class {
			hi++
		}
		next := make([]*diversity.Assignment, 0, len(out)*(hi-lo+1))
		for _, a := range out {
			next = append(next, a)
			for _, opt := range opts[lo:hi] {
				b := a.Clone()
				opt.Apply(b)
				next = append(next, b)
			}
		}
		out, lo = next, hi
	}
	return out
}

// The exhaustive oracle: score every feasible placement through one
// evaluator and check each strategy against the true optimum. Every
// candidate a strategy can reach is in the enumeration, and a CRN score
// is a pure function of the candidate, so no strategy can report a value
// below the optimum. The log shows each strategy's value gap and its
// cost gap to the cheapest optimal placement.
func TestExhaustiveOracle(t *testing.T) {
	p := exhaustiveProblem()
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Options) > 12 {
		t.Fatalf("%d options: too many to enumerate", len(p.Options))
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	placements := enumeratePlacements(p.Options)
	var opt Score
	feasible := 0
	for _, a := range placements {
		s, err := ev.Score(Candidate{A: a, Rot: -1})
		if err != nil {
			t.Fatal(err)
		}
		if s.refused != 0 {
			continue
		}
		if feasible == 0 || s.Value < opt.Value || (s.Value == opt.Value && s.Cost < opt.Cost) {
			opt = s
		}
		feasible++
	}
	t.Logf("%d placements, %d within budget %.0f: optimum value %.6g at cost %.0f",
		len(placements), feasible, p.Budget, opt.Value, opt.Cost)
	for _, o := range strategies(t) {
		res, err := Run(exhaustiveProblem(), o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Value < opt.Value {
			t.Errorf("%s: best %v below the enumerated optimum %v", o.Name(), res.Best.Value, opt.Value)
		}
		t.Logf("%-8s value %.6g (gap %+.3g), cost %.0f (gap %+.0f), %d evaluations",
			o.Name(), res.Best.Value, res.Best.Value-opt.Value, res.Best.Cost, res.Best.Cost-opt.Cost, res.Evaluations)
	}
}

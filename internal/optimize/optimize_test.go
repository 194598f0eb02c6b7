package optimize

import (
	"fmt"
	"math"
	"testing"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/topology"
)

// testProblem builds a small, fast optimization over the reference
// tiered plant: OS and protocol diversification, one-week horizon.
func testProblem(seed uint64) Problem {
	topo := topology.NewTieredSCADA(topology.DefaultTieredSpec())
	cat := exploits.StuxnetCatalog()
	opts := diversity.EnumerateOptions(topo, cat,
		[]exploits.Class{exploits.ClassOS, exploits.ClassProtocol},
		func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC })
	return Problem{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
		Options: opts,
		Cost:    diversity.CostModel{PlatformCost: 5, NodeCost: 2},
		Budget:  30,
		Horizon: 168, Reps: 6, Seed: seed,
		Iterations: 40, Population: 8,
	}
}

func strategies(t *testing.T) []Optimizer {
	t.Helper()
	var out []Optimizer
	for _, name := range []string{"greedy", "anneal", "pareto"} {
		o, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
	return out
}

// traceString formats a trace for byte-identity comparison with the
// Elapsed timestamps zeroed: elapsed wall time is honest telemetry, not
// part of the determinism contract.
func traceString(trace []TraceStep) string {
	stripped := make([]TraceStep, len(trace))
	copy(stripped, trace)
	for i := range stripped {
		stripped[i].Elapsed = 0
	}
	return fmt.Sprintf("%+v", stripped)
}

// Same seed and configuration must reproduce the identical trace and the
// identical final assignment, regardless of the worker count.
func TestDeterministicTraceAndAssignment(t *testing.T) {
	for _, o := range strategies(t) {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			var wantTrace, wantFP string
			for i, workers := range []int{1, 1, 4} {
				p := testProblem(11)
				p.Workers = workers
				res, err := Run(p, o)
				if err != nil {
					t.Fatal(err)
				}
				trace := traceString(res.Trace)
				fp := fmt.Sprintf("%016x/%+v", res.BestFingerprint, res.Best)
				if i == 0 {
					wantTrace, wantFP = trace, fp
					continue
				}
				if trace != wantTrace {
					t.Fatalf("workers=%d: trace diverged", workers)
				}
				if fp != wantFP {
					t.Fatalf("workers=%d: best diverged: %s vs %s", workers, fp, wantFP)
				}
			}
		})
	}
}

// Property: at equal budget, no strategy returns a result worse than the
// uniform (undiversified) baseline, and the result always fits the
// budget. Checked over several seeds per strategy.
func TestNeverWorseThanBaseline(t *testing.T) {
	for _, o := range strategies(t) {
		for seed := uint64(1); seed <= 5; seed++ {
			p := testProblem(seed)
			p.Reps = 4
			p.Iterations = 15
			res, err := Run(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Best.Value > res.Baseline.Value {
				t.Errorf("%s seed %d: best %.4f worse than baseline %.4f",
					o.Name(), seed, res.Best.Value, res.Baseline.Value)
			}
			if res.Best.Cost > p.Budget+budgetEps {
				t.Errorf("%s seed %d: best cost %.2f exceeds budget %.2f",
					o.Name(), seed, res.Best.Cost, p.Budget)
			}
		}
	}
}

// Annealing revisits candidates; the fingerprint cache must convert
// those into hits (identical candidates are never re-simulated).
func TestMemoizationHits(t *testing.T) {
	for _, name := range []string{"anneal"} {
		o, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(testProblem(3), o)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHits == 0 {
			t.Errorf("%s: expected >0 cache hits, got 0 (misses %d)", name, res.CacheMisses)
		}
		if res.Evaluations != res.CacheMisses {
			t.Errorf("%s: evaluations %d != misses %d", name, res.Evaluations, res.CacheMisses)
		}
	}
}

// pointVec rebuilds the objective vector of a reported front point for
// the default cost × success × detection axes.
func pointVec(pt ParetoPoint) []float64 {
	return []float64{pt.Cost, pt.PSuccess + 1e-3*pt.FinalRatio, pt.MeanDetLatency}
}

// The Pareto front must be within budget, cost-sorted, free of
// duplicate objective vectors, and pairwise non-dominated in all three
// objectives — for every strategy's archive, not just the pareto
// search's.
func TestParetoFrontShape(t *testing.T) {
	for _, name := range []string{"anneal", "pareto"} {
		o, _ := ByName(name)
		p := testProblem(7)
		res, err := Run(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pareto) == 0 {
			t.Fatal("empty pareto front")
		}
		minValue := math.Inf(1)
		for i, pt := range res.Pareto {
			if pt.Cost > p.Budget+budgetEps {
				t.Errorf("%s: front point %d cost %.2f over budget", name, i, pt.Cost)
			}
			if i > 0 && pt.Cost < res.Pareto[i-1].Cost {
				t.Errorf("%s: front not cost-ascending at %d", name, i)
			}
			if pt.Value < minValue {
				minValue = pt.Value
			}
			for j, other := range res.Pareto {
				if i == j {
					continue
				}
				ov, pv := pointVec(other), pointVec(pt)
				if dominates(ov, pv) {
					t.Errorf("%s: front point %d dominated by %d", name, i, j)
				}
				if i < j && compareVec(ov, pv) == 0 {
					t.Errorf("%s: duplicate objective vector at %d and %d", name, i, j)
				}
			}
		}
		// The scalar incumbent's value is the front's success floor: the
		// success axis IS the MinimizeSuccess scalar, so the best feasible
		// candidate cannot be dominated out of the front.
		if minValue != res.Best.Value {
			t.Errorf("%s: front success floor %.4f != best %.4f", name, minValue, res.Best.Value)
		}
	}
}

// The evaluator must fail fast on unusable problems, and ByName must
// reject unknown strategies.
func TestValidation(t *testing.T) {
	if _, err := ByName("hillclimb"); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	o, _ := ByName("greedy")
	if _, err := Run(Problem{}, o); err == nil {
		t.Fatal("want error for empty problem")
	}
	p := testProblem(1)
	p.Options = nil
	if _, err := Run(p, o); err == nil {
		t.Fatal("want error for empty option space")
	}
	p = testProblem(1)
	p.Budget = -1
	if _, err := Run(p, o); err == nil {
		t.Fatal("want error for negative budget")
	}
	// A base assignment that already exceeds the budget leaves no
	// feasible candidate; a zero-valued Best must not be reported.
	p = testProblem(1)
	p.Base = diversity.NewAssignment()
	for _, opt := range p.Options[:4] {
		opt.Apply(p.Base)
	}
	p.Budget = 1
	if _, err := Run(p, o); err == nil {
		t.Fatal("want error when base assignment exceeds budget")
	}
}

// Greedy must spend budget only while it improves the objective, and the
// trace must reflect monotone improvement.
func TestGreedyTraceMonotone(t *testing.T) {
	o, _ := ByName("greedy")
	res, err := Run(testProblem(5), o)
	if err != nil {
		t.Fatal(err)
	}
	prev := res.Baseline.Value
	for i, step := range res.Trace {
		if !step.Accepted {
			t.Errorf("greedy trace step %d not accepted", i)
		}
		if step.Value >= prev {
			t.Errorf("greedy step %d value %.4f did not improve on %.4f", i, step.Value, prev)
		}
		prev = step.Value
	}
}

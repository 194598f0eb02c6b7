package optimize

import (
	"context"
	"fmt"
	"math"
	"testing"

	"diversify/internal/diversity"
)

// Property (a): every reported Pareto point is feasible and
// non-dominated against every other archived feasible candidate in all
// three objectives — not merely against its fellow front members — and,
// conversely, the front is complete: a brute-force O(n²) filter over the
// archive is the oracle for paretoFront's non-dominated sort.
func TestParetoPointsNonDominatedInArchive(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		p := testProblem(seed)
		p.Iterations = 8
		o, _ := ByName("pareto")
		// Re-run the pipeline by hand so the full archive is inspectable.
		p.normalize()
		if err := p.validate(); err != nil {
			t.Fatal(err)
		}
		ev, err := newEvaluator(&p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Score(p.baseCand()); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Search(context.Background(), &p, ev, newSearchRand(p.Seed, o.Name())); err != nil {
			t.Fatal(err)
		}
		// Twin every archived candidate under a neighbouring fingerprint,
		// standing in for distinct assignments that measure the same, so
		// the lowest-fingerprint dedupe rule is exercised on every vector.
		for _, c := range ev.archive {
			c.fingerprint ^= 1
			ev.archive = append(ev.archive, c)
		}
		front := paretoFront(&p, ev)
		if len(front) == 0 {
			t.Fatal("empty front")
		}
		for i, pt := range front {
			if pt.Cost > p.Budget+budgetEps {
				t.Errorf("seed %d: front point %d cost %.2f over budget %.2f", seed, i, pt.Cost, p.Budget)
			}
			pv := pointVec(pt)
			for _, c := range ev.archive {
				if c.score.Cost > p.Budget+budgetEps {
					continue
				}
				if dominates(objVec(p.Axes, c.score), pv) {
					t.Errorf("seed %d: front point %d (fp %016x) dominated by archived %016x",
						seed, i, pt.Fingerprint, c.fingerprint)
				}
			}
		}
		// Converse: every distinct feasible vector in the archive that no
		// feasible vector dominates is on the front, carried by the lowest
		// fingerprint among the candidates measuring it.
		feasible := func(c archived) bool {
			return c.score.Cost <= p.Budget+budgetEps && zoneFeasible(&p, c.cand.A) && !c.score.Quarantined
		}
		want := map[string]uint64{} // objective vector → lowest fingerprint
		for _, c := range ev.archive {
			if !feasible(c) {
				continue
			}
			v := objVec(p.Axes, c.score)
			dominated := false
			for _, o := range ev.archive {
				if feasible(o) && dominates(objVec(p.Axes, o.score), v) {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			if fp, ok := want[fmt.Sprint(v)]; !ok || c.fingerprint < fp {
				want[fmt.Sprint(v)] = c.fingerprint
			}
		}
		onFront := map[uint64]bool{}
		for _, pt := range front {
			onFront[pt.Fingerprint] = true
		}
		if len(want) != len(front) {
			t.Errorf("seed %d: front has %d points, brute force finds %d non-dominated vectors",
				seed, len(front), len(want))
		}
		for v, fp := range want {
			if !onFront[fp] {
				t.Errorf("seed %d: non-dominated vector %s (lowest fp %016x) missing from the front", seed, v, fp)
			}
		}
	}
}

// Property (b): the front — points, ordering, decisions — is
// byte-identical across worker counts (and therefore batch sizes, which
// are derived from them).
func TestParetoFrontIdenticalAcrossWorkers(t *testing.T) {
	o, _ := ByName("pareto")
	var want string
	for i, workers := range []int{1, 3, 8} {
		p := testProblem(13)
		p.Iterations = 6
		p.Workers = workers
		res, err := Run(p, o)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", res.Pareto)
		if i == 0 {
			want = got
			if len(res.Pareto) == 0 {
				t.Fatal("empty front")
			}
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: front diverged\n got %s\nwant %s", workers, got, want)
		}
	}
}

// Property (c): detection-latency statistics are a pure function of the
// assignment and the seed — two independent evaluators agree bit for
// bit, and the stats are non-degenerate on the reference plant.
func TestDetectionStatsDeterministic(t *testing.T) {
	score := func(workers int) Score {
		p := testProblem(5)
		p.Workers = workers
		p.normalize()
		if err := p.validate(); err != nil {
			t.Fatal(err)
		}
		ev, err := newEvaluator(&p)
		if err != nil {
			t.Fatal(err)
		}
		a := diversity.NewAssignment()
		p.Options[0].Apply(a)
		s, err := ev.Score(Candidate{A: a, Rot: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := score(1)
	for _, workers := range []int{1, 4, 7} {
		if got := score(workers); got != first {
			t.Fatalf("workers=%d: score diverged: %+v vs %+v", workers, got, first)
		}
	}
	if first.MeanDetLatency <= 0 || math.IsNaN(first.MeanDetLatency) {
		t.Fatalf("degenerate detection latency %v (stuxnet campaigns do get detected)", first.MeanDetLatency)
	}
	if first.PDetect <= 0 || first.MeanDetections < first.PDetect {
		t.Fatalf("inconsistent detection stats: PDetect %v, MeanDetections %v", first.PDetect, first.MeanDetections)
	}
}

// The pareto strategy must actually spread the archive: its front on
// the reference problem carries more than one trade-off point, with
// both a cheap end and a detection-favoring end.
func TestParetoStrategyFindsTradeoffs(t *testing.T) {
	o, _ := ByName("pareto")
	p := testProblem(9)
	p.Iterations = 10
	res, err := Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pareto) < 2 {
		t.Fatalf("front has %d point(s); a 3-objective search should surface trade-offs", len(res.Pareto))
	}
	// The front must include the zero-cost baseline end.
	if res.Pareto[0].Cost != 0 {
		t.Errorf("front does not start at the undiversified end (cost %.1f)", res.Pareto[0].Cost)
	}
}

// ParseAxes maps names, rejects junk, and defaults to the 3-D front.
func TestParseAxes(t *testing.T) {
	axes, err := ParseAxes(nil)
	if err != nil || len(axes) != 3 {
		t.Fatalf("default axes = %v, %v", axes, err)
	}
	axes, err = ParseAxes([]string{"cost", "success"})
	if err != nil || len(axes) != 2 || axes[0] != AxisCost || axes[1] != AxisSuccess {
		t.Fatalf("axes = %v, %v", axes, err)
	}
	if _, err := ParseAxes([]string{"entropy"}); err == nil {
		t.Fatal("unknown axis accepted")
	}
}

// dominates/compareVec are the dominance bedrock; pin their semantics.
func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1, 1}, []float64{1, 1, 1}, false}, // equal: no strict axis
		{[]float64{1, 1, 0}, []float64{1, 1, 1}, true},
		{[]float64{0, 2, 0}, []float64{1, 1, 1}, false}, // worse on one axis
		{[]float64{0, 0, 0}, []float64{1, 1, 1}, true},
	}
	for i, c := range cases {
		if got := dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: dominates(%v,%v) = %v", i, c.a, c.b, got)
		}
	}
	if compareVec([]float64{1, 2}, []float64{1, 3}) >= 0 {
		t.Fatal("compareVec lexicographic order broken")
	}
}

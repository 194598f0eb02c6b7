package optimize

import (
	"errors"
	"sync/atomic"
	"testing"

	"diversify/internal/diversity"
)

// Score is the one feasibility gate: an over-budget or zone-capped
// candidate comes back priced and valued infeasibleValue, and leaves no
// trace — no evaluation counted, nothing cached or archived, no event
// emitted, no replication run.
func TestScoreRefusesInfeasible(t *testing.T) {
	p := testProblem(2)
	p.MaxPerZone = 1
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	ev.sink = sink
	var reps atomic.Int64 // the hook runs on the pool's workers
	ev.repHook = func(Candidate, int) { reps.Add(1) }
	if _, err := ev.Score(p.baseCand()); err != nil {
		t.Fatal(err)
	}

	// Every placement decision breaks MaxPerZone=1; one alone fits the
	// budget, all of them together do not.
	capped := p.baseCand()
	p.Options[0].Apply(capped.A)
	expensive := p.baseCand()
	for _, opt := range p.Options {
		opt.Apply(expensive.A)
	}
	for _, tc := range []struct {
		name string
		c    Candidate
		want refusal
	}{{"zone-capped", capped, overZoneCap}, {"over-budget", expensive, overBudget}} {
		cost := p.Cost.Cost(p.Topo, tc.c.A)
		if p.withinBudget(cost) != (tc.want == overZoneCap) {
			t.Fatalf("%s: fixture cost %.2f against budget %.2f", tc.name, cost, p.Budget)
		}
		misses, hits, cached, archived, events, ran := ev.misses, ev.hits, len(ev.cache), len(ev.archive), sink.n, reps.Load()
		for range 2 { // a refusal is not memoized: the second call refuses afresh
			s, err := ev.Score(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			if s.refused != tc.want || s.Cost != cost || s.Value != infeasibleValue {
				t.Fatalf("%s: got %+v (refused %d), want cost %.2f refused %d", tc.name, s, s.refused, cost, tc.want)
			}
		}
		if ev.misses != misses || ev.hits != hits || len(ev.cache) != cached || len(ev.archive) != archived {
			t.Errorf("%s: refusal touched the bookkeeping: misses %d→%d hits %d→%d cache %d→%d archive %d→%d",
				tc.name, misses, ev.misses, hits, ev.hits, cached, len(ev.cache), archived, len(ev.archive))
		}
		if sink.n != events {
			t.Errorf("%s: refusal emitted %d events", tc.name, sink.n-events)
		}
		if n := reps.Load(); n != ran {
			t.Errorf("%s: refusal ran %d replications", tc.name, n-ran)
		}
	}
}

// A base assignment over budget fails the run as soon as the baseline
// is refused: no replication runs and no search starts.
func TestOverBudgetBaseFailsBeforeSearch(t *testing.T) {
	p := testProblem(1)
	p.Base = diversity.NewAssignment()
	for _, opt := range p.Options[:4] {
		opt.Apply(p.Base)
	}
	p.Budget = 1
	var reps atomic.Int64
	p.repHook = func(Candidate, int) { reps.Add(1) }
	if _, err := Run(p, &Greedy{}); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
	if n := reps.Load(); n != 0 {
		t.Fatalf("over-budget base ran %d replications", n)
	}
}

// When every evaluation is quarantined — the baseline included — there
// is no incumbent to report, and the run fails instead of returning a
// zero-valued Best.
func TestAllQuarantinedFails(t *testing.T) {
	p := testProblem(1)
	p.Reps = 2
	p.repHook = func(Candidate, int) { panic("injected evaluation fault") }
	if _, err := Run(p, &Greedy{}); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
}

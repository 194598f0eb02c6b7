package optimize

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"diversify/internal/diversity"
	"diversify/internal/rng"
)

// Panic isolation: a candidate whose evaluation panics on every attempt
// is quarantined — scored infeasible, cached, excluded from extraction —
// instead of crashing the process or deadlocking the worker pool.
func TestPanicQuarantinesCandidate(t *testing.T) {
	p := testProblem(3)
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	poison := Candidate{A: diversity.NewAssignment(), Rot: -1}
	p.Options[0].Apply(poison.A)
	poisonFP := poison.fingerprint(ev.rotFPs)
	ev.repHook = func(c Candidate, rep int) {
		if c.fingerprint(ev.rotFPs) == poisonFP {
			panic("injected evaluation fault")
		}
	}
	if _, err := ev.Score(p.baseCand()); err != nil {
		t.Fatalf("healthy candidate errored: %v", err)
	}
	s, err := ev.Score(poison)
	if err != nil {
		t.Fatalf("poisoned candidate returned error instead of quarantine: %v", err)
	}
	if !s.Quarantined || s.Value != infeasibleValue {
		t.Fatalf("poisoned candidate not quarantined: %+v", s)
	}
	if ev.quarantined != 1 {
		t.Fatalf("quarantined counter = %d, want 1", ev.quarantined)
	}
	// The workers' campaigns were torn down mid-panic; the next healthy
	// candidate must rebuild and still score bit-identically to a fresh
	// evaluator that never saw a panic (CRN survives the teardown).
	healthy := Candidate{A: p.base(), Rot: -1}
	p.Options[1].Apply(healthy.A)
	after, err := ev.Score(healthy)
	if err != nil {
		t.Fatalf("evaluation after quarantine errored: %v", err)
	}
	fresh, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Score(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if after != want {
		t.Fatalf("healthy score diverged after a quarantine:\n got %+v\nwant %+v", after, want)
	}
	// Extraction never surfaces the quarantined candidate.
	if _, bestC, _ := ev.bestFeasible(); bestC.A != nil {
		if bestC.A.Fingerprint() == poison.A.Fingerprint() {
			t.Fatal("bestFeasible returned a quarantined candidate")
		}
	}
	for _, pt := range paretoFront(&p, ev) {
		if pt.Fingerprint == poisonFP {
			t.Fatal("pareto front contains a quarantined candidate")
		}
	}
}

// A transient panic (fails once, then recovers) is retried with the same
// replication stream seed, so the final score is byte-identical to an
// undisturbed evaluation — common random numbers survive the retry path.
func TestPanicRetryPreservesCRN(t *testing.T) {
	p := testProblem(5)
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	clean, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Score(p.baseCand())
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	faulty.repHook = func(c Candidate, rep int) {
		// Panic exactly once, on the first attempt of replication 2.
		if rep == 2 && fired.Add(1) == 1 {
			panic("transient fault")
		}
	}
	got, err := faulty.Score(p.baseCand())
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() < 2 {
		t.Fatalf("fault hook fired %d times, want the retry to re-run replication 2", fired.Load())
	}
	if got != want {
		t.Fatalf("transient panic changed the score:\n got %+v\nwant %+v", got, want)
	}
	if faulty.quarantined != 0 {
		t.Fatalf("transient panic quarantined the candidate (counter %d)", faulty.quarantined)
	}
}

// With several candidates poisoned, a full evaluation sweep still visits
// every candidate and quarantines exactly the poisoned ones.
func TestPanicIsolationSweep(t *testing.T) {
	p := testProblem(7)
	p.Reps = 4
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	ev.repHook = func(c Candidate, rep int) {
		if c.A.Len()%2 == 1 { // every odd-sized overlay panics
			panic(fmt.Sprintf("poisoned overlay of %d decisions", c.A.Len()))
		}
	}
	cand := Candidate{A: p.base(), Rot: -1}
	quar := 0
	for i := 0; i < 6 && i < len(p.Options); i++ {
		p.Options[i].Apply(cand.A)
		s, err := ev.Score(cand)
		if err != nil {
			t.Fatalf("option %d: %v", i, err)
		}
		if s.Quarantined {
			quar++
		} else if s.PSuccess < 0 || s.PSuccess > 1 {
			t.Fatalf("option %d: implausible healthy score %+v", i, s)
		}
	}
	if quar == 0 || quar != ev.quarantined {
		t.Fatalf("sweep quarantined %d candidates (counter %d), want a consistent nonzero count", quar, ev.quarantined)
	}
}

// Cancelling the context at an arbitrary replication boundary must
// still yield a valid, feasible, within-budget incumbent (never worse
// than the baseline, which is evaluated before the search starts) —
// for every strategy. The fault-injection hook cancels after the k-th
// replication attempt, sweeping k across the whole run.
func TestCancelAtRandomPointsYieldsFeasibleIncumbent(t *testing.T) {
	for si, name := range []string{"greedy", "anneal", "pareto"} {
		o, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(0xC0FFEE + si))
		for trial := 0; trial < 4; trial++ {
			p := testProblem(uint64(11 + trial))
			p.Iterations = 10
			limit := int64(1 + r.Intn(40*p.Reps))
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			p.repHook = func(Candidate, int) {
				if calls.Add(1) == limit {
					cancel()
				}
			}
			res, err := RunContext(ctx, p, o)
			cancel()
			if err != nil {
				// The only unsalvageable window: cancellation before the
				// baseline evaluation finished — nothing was measured yet.
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s trial %d: %v", name, trial, err)
				}
				if limit > int64(p.Reps) {
					t.Fatalf("%s trial %d: hard failure after the baseline completed (limit %d > reps %d)",
						name, trial, limit, p.Reps)
				}
				continue
			}
			if res.BestAssignment == nil {
				t.Fatalf("%s trial %d: nil best assignment", name, trial)
			}
			if res.Best.Cost > p.Budget+budgetEps {
				t.Fatalf("%s trial %d: best cost %.2f over budget %.2f", name, trial, res.Best.Cost, p.Budget)
			}
			if res.Best.Quarantined {
				t.Fatalf("%s trial %d: quarantined incumbent", name, trial)
			}
			if res.Best.Value > res.Baseline.Value {
				t.Fatalf("%s trial %d: best %.4f worse than baseline %.4f", name, trial, res.Best.Value, res.Baseline.Value)
			}
			if res.Degraded != "" && (res.Random != Score{}) {
				t.Fatalf("%s trial %d: degraded run evaluated the random baseline", name, trial)
			}
			for i, pt := range res.Pareto {
				if pt.Cost > p.Budget+budgetEps {
					t.Fatalf("%s trial %d: front point %d over budget", name, trial, i)
				}
			}
		}
	}
}

// A context that is already dead fails fast with its error: with no
// baseline evaluated there is no incumbent to degrade to.
func TestRunContextDeadDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	o, _ := ByName("greedy")
	if _, err := RunContext(ctx, testProblem(1), o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// An undisturbed RunContext must be byte-identical to Run — the context
// plumbing adds no draws and no reordering.
func TestRunContextMatchesRun(t *testing.T) {
	o, _ := ByName("anneal")
	a, err := Run(testProblem(21), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), testProblem(21), o)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("RunContext diverged from Run on the same problem")
	}
}

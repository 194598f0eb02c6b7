package optimize

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"diversify/internal/telemetry"
)

// Telemetry observes the search, it never steers it: with a recording
// sink attached the trace, winner and fingerprint must stay
// byte-identical to the bare run, for every strategy and worker count.
func TestInstrumentedRunsAreByteIdentical(t *testing.T) {
	for _, o := range strategies(t) {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			bare, err := Run(testProblem(11), o)
			if err != nil {
				t.Fatal(err)
			}
			if bare.Telemetry != nil {
				t.Fatalf("bare run populated Result.Telemetry")
			}
			want := traceString(bare.Trace) + fmt.Sprintf("/%016x/%+v", bare.BestFingerprint, bare.Best)
			for _, workers := range []int{1, 4} {
				p := testProblem(11)
				p.Workers = workers
				rec := &telemetry.Recorder{}
				res, err := RunWith(t.Context(), p, o, RunOptions{Sink: rec})
				if err != nil {
					t.Fatal(err)
				}
				got := traceString(res.Trace) + fmt.Sprintf("/%016x/%+v", res.BestFingerprint, res.Best)
				if got != want {
					t.Fatalf("workers=%d: instrumented run diverged from bare run", workers)
				}
				if res.Telemetry == nil {
					t.Fatalf("workers=%d: sink attached but Result.Telemetry is nil", workers)
				}
				if rec.Count("run_started") != 1 || rec.Count("run_finished") != 1 {
					t.Fatalf("workers=%d: stream not bracketed: %d started, %d finished",
						workers, rec.Count("run_started"), rec.Count("run_finished"))
				}
				if rec.Count("round_completed") == 0 || rec.Count("evaluation_batch") == 0 {
					t.Fatalf("workers=%d: missing rounds/batches in stream", workers)
				}
			}
		})
	}
}

// The telemetry report's totals must agree with the returned Result, its
// ratios must be well-formed, and the round stream must attribute rounds
// and wall time per strategy — including pareto's greedy seeding
// reporting its rounds under greedy's name.
func TestTelemetryReportConsistency(t *testing.T) {
	o, err := ByName("pareto")
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem(21)
	p.Reps = 4
	p.Iterations = 8
	rec := &telemetry.Recorder{}
	res, err := RunWith(t.Context(), p, o, RunOptions{Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Telemetry
	if r == nil {
		t.Fatal("no telemetry report")
	}
	if r.Strategy != "pareto" || r.Best != res.Best.Value {
		t.Fatalf("header disagrees with Result: %+v vs best %v", r, res.Best.Value)
	}
	if r.Evaluations != res.Evaluations || r.CacheHits != res.CacheHits || r.Replications != res.Replications {
		t.Fatalf("totals disagree with Result: report %d/%d/%d, result %d/%d/%d",
			r.Evaluations, r.CacheHits, r.Replications, res.Evaluations, res.CacheHits, res.Replications)
	}
	wantRatio := float64(r.CacheHits) / float64(r.CacheHits+r.Evaluations)
	if r.CacheHitRatio < 0 || r.CacheHitRatio > 1 || math.Abs(r.CacheHitRatio-wantRatio) > 1e-12 {
		t.Fatalf("cache hit ratio %v, want %v", r.CacheHitRatio, wantRatio)
	}
	// The trace holds pareto's generations, and Rounds counts them; the
	// greedy seeding rounds reach the per-stage accounting only.
	if r.Rounds != len(res.Trace) || r.StrategyRounds["pareto"] != len(res.Trace) {
		t.Fatalf("rounds %d, pareto rounds %d, trace steps %d", r.Rounds, r.StrategyRounds["pareto"], len(res.Trace))
	}
	// The greedy seeding rounds report under greedy's name, the
	// generations under pareto's.
	for _, stage := range []string{"greedy", "pareto"} {
		if r.StrategyRounds[stage] == 0 {
			t.Errorf("no rounds attributed to stage %q: %v", stage, r.StrategyRounds)
		}
	}
	wall := 0.0
	for stage, s := range r.StrategyWallSeconds {
		if s < 0 {
			t.Errorf("negative wall time for %q", stage)
		}
		wall += s
	}
	// Round wall deltas partition a prefix of the run: their sum cannot
	// exceed the run's elapsed time.
	if wall > r.ElapsedSeconds+1e-6 {
		t.Fatalf("per-strategy wall %v exceeds run elapsed %v", wall, r.ElapsedSeconds)
	}
	if r.ElapsedSeconds <= 0 {
		t.Fatalf("elapsed %v", r.ElapsedSeconds)
	}
	// The latency population covers every simulated batch; the Result
	// bills the strategy only, so the random comparison row — simulated
	// after the effort snapshot — is the one extra batch.
	if r.EvalLatency == nil || r.EvalLatency.Count != res.Evaluations+1 {
		t.Fatalf("latency population %+v, want count %d", r.EvalLatency, res.Evaluations+1)
	}
	if r.Retries != res.Stats.Retries || r.Quarantined != res.Stats.Quarantined {
		t.Fatalf("fault accounting disagrees with Stats")
	}
	// The batches bill every simulated and replayed replication, the
	// reference recordings included, and the report carries Stats'.
	simulated, replayed := 0, 0
	for _, e := range rec.Events() {
		if b, ok := e.(telemetry.EvaluationBatch); ok {
			simulated += b.Replications
			replayed += b.Replayed
		}
	}
	if simulated != res.Stats.Simulated || replayed != res.Stats.Replayed ||
		r.SimulatedReplications != simulated || r.ReplayedReplications != replayed {
		t.Fatalf("replication accounting: batches %d simulated / %d replayed, Stats %d / %d, report %d / %d",
			simulated, replayed, res.Stats.Simulated, res.Stats.Replayed, r.SimulatedReplications, r.ReplayedReplications)
	}
	if replayed == 0 {
		t.Fatal("pareto's greedy seeding replayed nothing")
	}
	// Every strategy reports one round per trace step.
	for _, o := range strategies(t) {
		res, err := RunWith(t.Context(), p, o, RunOptions{Sink: &telemetry.Recorder{}})
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Telemetry; r.Rounds != len(res.Trace) || r.StrategyRounds[o.Name()] != len(res.Trace) {
			t.Errorf("%s: rounds %d, own rounds %d, trace steps %d", o.Name(), r.Rounds, r.StrategyRounds[o.Name()], len(res.Trace))
		}
	}
}

// The round timestamps are monotonic: elapsed time never decreases
// across the trace, nor across the round stream, where pareto's greedy
// seeding rounds precede its generations.
func TestTraceElapsedMonotonic(t *testing.T) {
	o, err := ByName("pareto")
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem(3)
	p.Reps = 4
	p.Iterations = 6
	rec := &telemetry.Recorder{}
	res, err := RunWith(t.Context(), p, o, RunOptions{Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Trace[0].Elapsed
	if last <= 0 {
		t.Fatalf("first step has no elapsed timestamp")
	}
	for i, s := range res.Trace {
		if s.Elapsed < last {
			t.Fatalf("step %d: elapsed went backwards (%v after %v)", i, s.Elapsed, last)
		}
		last = s.Elapsed
	}
	var prev telemetry.RoundCompleted
	boundaries := 0
	for _, e := range rec.Events() {
		rc, ok := e.(telemetry.RoundCompleted)
		if !ok {
			continue
		}
		if rc.Elapsed < prev.Elapsed {
			t.Fatalf("%s round %d: elapsed went backwards (%v after %v)", rc.Strategy, rc.Round, rc.Elapsed, prev.Elapsed)
		}
		if prev.Strategy == "greedy" && rc.Strategy == "pareto" {
			boundaries++
		}
		prev = rc
	}
	if boundaries != 1 {
		t.Fatalf("%d greedy→pareto boundaries in the round stream, want 1", boundaries)
	}
}

// With telemetry disabled the memoized evaluation path must not touch
// the clock or allocate: the nil-check is the entire overhead.
func TestDisabledSinkCacheHitZeroAllocs(t *testing.T) {
	p := testProblem(5)
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	cand := Candidate{A: p.base(), Rot: -1}
	if _, err := ev.Score(cand); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.Score(cand); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Score with telemetry disabled allocates %v/op, want 0", allocs)
	}
}

// Events arrive from the search loop and the evaluator workers while a
// /metrics scrape reads the registry — the full concurrent surface, run
// under -race.
func TestConcurrentSinkAndScrape(t *testing.T) {
	o, err := ByName("pareto")
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem(9)
	p.Workers = 4
	p.Reps = 4
	p.Iterations = 6
	reg := telemetry.NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	res, err := RunWith(t.Context(), p, o, RunOptions{Sink: &telemetry.Recorder{}, Metrics: reg})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("no telemetry report")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`diversify_rounds_total{strategy="pareto"}`,
		"diversify_eval_batches_total",
		"diversify_eval_latency_seconds_count",
		"diversify_best_value",
		"diversify_run_elapsed_seconds",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

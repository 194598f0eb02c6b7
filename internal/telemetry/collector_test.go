package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// A synthetic two-stage stream: the collector must attribute
// rounds and wall time per strategy, derive the ratios from the
// authoritative RunFinished totals, and keep the registry current.
func TestCollectorReport(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	c.Emit(RunStarted{Strategy: "portfolio", Workers: 4, Options: 30})
	c.Emit(StoreWarmStart{Path: "evals.store", Evaluations: 100})
	c.Emit(RoundCompleted{Strategy: "greedy", Round: 0, Incumbent: 0.5, Elapsed: 100 * time.Millisecond})
	c.Emit(RoundCompleted{Strategy: "greedy", Round: 1, Incumbent: 0.4, Elapsed: 250 * time.Millisecond})
	c.Emit(RoundCompleted{Strategy: "anneal", Round: 0, Incumbent: 0.4, Elapsed: 400 * time.Millisecond})
	c.Emit(EvaluationBatch{Duration: 10 * time.Millisecond, Replications: 4})
	c.Emit(EvaluationBatch{Duration: 30 * time.Millisecond, Replications: 4})
	c.Emit(EvaluationBatch{FromStore: true})
	c.Emit(WorkerQuarantined{Worker: 1, Replication: 3, Attempts: 3, Cause: "boom"})
	tot := Totals{
		Evaluations: 40, CacheHits: 60, Replications: 160,
		StoreHits: 10, StorePuts: 30, Simulated: 72, Replayed: 56,
		Retries: 2, Quarantined: 1,
	}
	c.Emit(RunFinished{Strategy: "portfolio", Best: 0.4, Totals: tot, Elapsed: 500 * time.Millisecond})

	r := c.Report()
	if r.Strategy != "portfolio" || r.Best != 0.4 {
		t.Fatalf("header: %+v", r)
	}
	if r.Rounds != 3 || r.StrategyRounds["greedy"] != 2 || r.StrategyRounds["anneal"] != 1 {
		t.Fatalf("round attribution: rounds=%d per-strategy=%v", r.Rounds, r.StrategyRounds)
	}
	// Wall time: greedy is billed 100ms + 150ms, anneal 150ms.
	if got := r.StrategyWallSeconds["greedy"]; math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("greedy wall = %v, want 0.25", got)
	}
	if got := r.StrategyWallSeconds["anneal"]; math.Abs(got-0.15) > 1e-9 {
		t.Fatalf("anneal wall = %v, want 0.15", got)
	}
	// Ratios derive from RunFinished: 60 hits over 100 lookups; 10 store
	// hits over 40 evaluations.
	if math.Abs(r.CacheHitRatio-0.6) > 1e-9 {
		t.Fatalf("cache hit ratio = %v, want 0.6", r.CacheHitRatio)
	}
	if math.Abs(r.WarmStartRatio-0.25) > 1e-9 {
		t.Fatalf("warm start ratio = %v, want 0.25", r.WarmStartRatio)
	}
	if r.Totals != tot {
		t.Fatalf("totals = %+v, want %+v", r.Totals, tot)
	}
	// Latency over the two simulated batches only (store serve excluded).
	if r.EvalLatency == nil || r.EvalLatency.Count != 2 {
		t.Fatalf("eval latency: %+v", r.EvalLatency)
	}
	if math.Abs(r.EvalLatency.MeanSeconds-0.02) > 1e-9 || math.Abs(r.EvalLatency.MaxSeconds-0.03) > 1e-9 {
		t.Fatalf("eval latency mean/max: %+v", r.EvalLatency)
	}
	if math.Abs(r.ElapsedSeconds-0.5) > 1e-9 {
		t.Fatalf("elapsed = %v", r.ElapsedSeconds)
	}

	// The registry mirrors the stream.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`diversify_rounds_total{strategy="greedy"} 2`,
		`diversify_rounds_total{strategy="anneal"} 1`,
		"diversify_quarantined_total 1",
		"diversify_best_value 0.4",
		"diversify_eval_batches_total 3",
		"diversify_eval_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry missing %q in:\n%s", want, out)
		}
	}
}

// A seeding pass's rounds are billed to their stage but stay out of
// Rounds, which counts the run strategy's trace steps.
func TestCollectorSeedingRounds(t *testing.T) {
	c := NewCollector(nil)
	c.Emit(RunStarted{Strategy: "pareto"})
	c.Emit(RoundCompleted{Strategy: "greedy", Seeding: true, Elapsed: 100 * time.Millisecond})
	c.Emit(RoundCompleted{Strategy: "pareto", Round: 0, Elapsed: 300 * time.Millisecond})
	r := c.Report()
	if r.Rounds != 1 || r.StrategyRounds["greedy"] != 1 || r.StrategyRounds["pareto"] != 1 {
		t.Fatalf("rounds=%d per-stage=%v, want 1 and greedy 1, pareto 1", r.Rounds, r.StrategyRounds)
	}
	if got := r.StrategyWallSeconds["greedy"]; math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("seeding wall = %v, want 0.1", got)
	}
}

// A mid-run snapshot must be internally consistent and must not be
// mutated by events that arrive after it was taken.
func TestCollectorMidRunSnapshot(t *testing.T) {
	c := NewCollector(nil)
	c.Emit(RoundCompleted{Strategy: "greedy", Round: 0, Elapsed: time.Millisecond})
	r1 := c.Report()
	c.Emit(RoundCompleted{Strategy: "greedy", Round: 1, Elapsed: 2 * time.Millisecond})
	if r1.Rounds != 1 || r1.StrategyRounds["greedy"] != 1 {
		t.Fatalf("snapshot mutated: %+v", r1)
	}
	if r2 := c.Report(); r2.Rounds != 2 {
		t.Fatalf("second snapshot: %+v", r2)
	}
}

// Events from many goroutines while reports are being taken — the
// evaluator pool's concurrency contract, run under -race.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Emit(EvaluationBatch{Duration: time.Microsecond})
				c.Emit(WorkerQuarantined{Worker: w, Replication: i})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = c.Report()
		}
	}()
	wg.Wait()
	<-done
	if r := c.Report(); r.EvalLatency == nil || r.EvalLatency.Count != 8*200 {
		t.Fatalf("lost batches: %+v", c.Report().EvalLatency)
	}
}

// Interleaved round / batch / explanation events from several goroutines
// while snapshots are taken: every mid-run snapshot must be internally
// consistent (non-negative aggregates) and the counted totals must never
// move backwards between consecutive snapshots. Run under -race this is
// the collector's monotonicity contract.
func TestCollectorConcurrentMonotonic(t *testing.T) {
	c := NewCollector(NewRegistry())
	const workers, per = 6, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Emit(RoundCompleted{Strategy: "greedy", Round: i, Elapsed: time.Duration(w*per+i) * time.Microsecond})
				c.Emit(EvaluationBatch{Replications: 8, Duration: time.Microsecond})
				if i%25 == 0 {
					c.Emit(ExplanationReady{Candidate: "best", Sampled: 4, Records: 100})
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prev *Report
		for i := 0; i < 200; i++ {
			r := c.Report()
			if r.Rounds < 0 || r.Explanations < 0 || r.StrategyRounds["greedy"] > r.Rounds {
				t.Errorf("inconsistent snapshot: %+v", r)
				return
			}
			// The mean is a float sum/count, so allow rounding slack when
			// comparing it against the max.
			if r.EvalLatency != nil && (r.EvalLatency.Count < 0 || r.EvalLatency.MeanSeconds < 0 || r.EvalLatency.MaxSeconds < r.EvalLatency.MeanSeconds*(1-1e-9)) {
				t.Errorf("inconsistent latency summary: %+v", r.EvalLatency)
				return
			}
			if prev != nil {
				if r.Rounds < prev.Rounds || r.Explanations < prev.Explanations {
					t.Errorf("aggregate moved backwards: %+v -> %+v", prev, r)
					return
				}
				if prev.EvalLatency != nil && (r.EvalLatency == nil || r.EvalLatency.Count < prev.EvalLatency.Count) {
					t.Errorf("latency count moved backwards: %+v -> %+v", prev.EvalLatency, r.EvalLatency)
					return
				}
			}
			prev = r
		}
	}()
	wg.Wait()
	<-done
	r := c.Report()
	if r.Rounds != workers*per {
		t.Fatalf("rounds = %d, want %d", r.Rounds, workers*per)
	}
	if r.Explanations != workers*6 {
		t.Fatalf("explanations = %d, want %d", r.Explanations, workers*6)
	}
}

// ExplanationReady aggregates into the report and keeps the registry's
// explanation metrics current.
func TestCollectorExplanationReady(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	c.Emit(ExplanationReady{Candidate: "baseline", Rotation: "static", Sampled: 8, Records: 715, Paths: 10, ChokePoints: 5})
	c.Emit(ExplanationReady{Candidate: "best", Rotation: "adaptive:24x2", Sampled: 8, Records: 532, Paths: 7, ChokePoints: 9})
	if r := c.Report(); r.Explanations != 2 {
		t.Fatalf("explanations = %d, want 2", r.Explanations)
	}
	if got := reg.Counter("diversify_explanations_total", "").Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	if got := reg.Gauge("diversify_explanation_records", "").Value(); got != 532 {
		t.Fatalf("records gauge = %v, want 532 (last explanation wins)", got)
	}
}

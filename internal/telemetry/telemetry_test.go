package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestEventKinds(t *testing.T) {
	want := map[Event]string{
		RunStarted{}:        "run_started",
		RoundCompleted{}:    "round_completed",
		EvaluationBatch{}:   "evaluation_batch",
		WorkerQuarantined{}: "worker_quarantined",
		StoreWarmStart{}:    "store_warm_start",
		RunFinished{}:       "run_finished",
	}
	seen := map[string]bool{}
	for e, kind := range want {
		if got := e.Kind(); got != kind {
			t.Errorf("%T.Kind() = %q, want %q", e, got, kind)
		}
		if seen[kind] {
			t.Errorf("duplicate kind tag %q", kind)
		}
		seen[kind] = true
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Emit(RunStarted{Strategy: "greedy"})
	r.Emit(RoundCompleted{Round: 0})
	r.Emit(RoundCompleted{Round: 1})
	r.Emit(RunFinished{})
	if got := r.Count(""); got != 4 {
		t.Fatalf("Count(\"\") = %d, want 4", got)
	}
	if got := r.Count("round_completed"); got != 2 {
		t.Fatalf("Count(round_completed) = %d, want 2", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() len = %d, want 4", len(evs))
	}
	// The snapshot must be stable against later emissions.
	r.Emit(RoundCompleted{Round: 2})
	if len(evs) != 4 {
		t.Fatalf("snapshot mutated by a later Emit")
	}
	if rc, ok := evs[1].(RoundCompleted); !ok || rc.Round != 0 {
		t.Fatalf("event order not preserved: %+v", evs[1])
	}
}

func TestMulti(t *testing.T) {
	if s := Multi(); s != nil {
		t.Fatalf("Multi() = %v, want nil", s)
	}
	if s := Multi(nil, nil); s != nil {
		t.Fatalf("Multi(nil, nil) = %v, want nil", s)
	}
	var a Recorder
	if s := Multi(nil, &a); s != Sink(&a) {
		t.Fatalf("Multi with one live sink must return it directly")
	}
	var b Recorder
	m := Multi(&a, nil, &b)
	m.Emit(RunStarted{})
	m.Emit(RunFinished{})
	if a.Count("") != 2 || b.Count("") != 2 {
		t.Fatalf("fan-out missed a sink: a=%d b=%d", a.Count(""), b.Count(""))
	}
}

func TestProgressNotices(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, false) // notices only, no ticker
	p.Emit(RunStarted{Strategy: "greedy"})
	p.Emit(StoreWarmStart{Path: "evals.store", Evaluations: 9})
	p.Emit(RoundCompleted{Strategy: "greedy", Round: 0, Incumbent: 0.5})
	p.Emit(WorkerQuarantined{Worker: 2, Replication: 7, Attempts: 3, Cause: "boom"})
	p.Emit(RunFinished{Strategy: "greedy", StoreHits: 4, StorePuts: 5, Quarantined: 1, Retries: 2})
	out := sb.String()
	for _, want := range []string{
		"optimize: evaluation store evals.store: 4 hits, 5 new measurements\n",
		"quarantined replication 7 after 3 attempts (worker 2): boom",
		"1 candidate(s) quarantined, 2 replication retries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing notice %q in:\n%s", want, out)
		}
	}
	// Without the ticker neither round lines nor run start/finish banners
	// print.
	for _, reject := range []string{"round", "done", "search:"} {
		if strings.Contains(out, reject) {
			t.Errorf("unexpected ticker output %q in:\n%s", reject, out)
		}
	}
}

func TestProgressTickerRateLimit(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, true)
	clock := time.Unix(0, 0)
	p.now = func() time.Time { return clock }
	p.Emit(RunStarted{Strategy: "anneal", Objective: "min P(success)", Options: 10, Reps: 4, Workers: 2, Budget: 30})
	// First round always prints (first incumbent); the next two rounds do
	// not improve and land inside the interval, so they are suppressed;
	// an improvement prints regardless of the interval.
	p.Emit(RoundCompleted{Strategy: "anneal", Round: 0, Incumbent: 0.5, Value: 0.5})
	p.Emit(RoundCompleted{Strategy: "anneal", Round: 1, Incumbent: 0.5, Value: 0.9})
	p.Emit(RoundCompleted{Strategy: "anneal", Round: 2, Incumbent: 0.5, Value: 0.8})
	p.Emit(RoundCompleted{Strategy: "anneal", Round: 3, Incumbent: 0.4, Value: 0.4})
	// After the interval passes a steady-state round prints again.
	clock = clock.Add(time.Second)
	p.Emit(RoundCompleted{Strategy: "anneal", Round: 4, Incumbent: 0.4, Value: 0.7})
	p.Emit(RunFinished{Strategy: "anneal", Best: 0.4, Evaluations: 5, Simulated: 12, Replayed: 8})
	out := sb.String()
	for _, want := range []string{"round 0", "round 3", "round 4", "anneal] done", "12 replications simulated, 8 replayed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing ticker line %q in:\n%s", want, out)
		}
	}
	for _, reject := range []string{"round 1", "round 2"} {
		if strings.Contains(out, reject) {
			t.Errorf("rate limit failed to suppress %q in:\n%s", reject, out)
		}
	}
}

func TestProgressInterruptedBanner(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, true)
	p.Emit(RunFinished{Strategy: "greedy", Degraded: "context canceled"})
	if !strings.Contains(sb.String(), "interrupted") {
		t.Fatalf("degraded run must print interrupted, got:\n%s", sb.String())
	}
}

// Package telemetry instruments the optimization runtime: a typed
// progress-event stream, a dependency-free metrics registry with a
// Prometheus text exposition writer, and an aggregating collector that
// turns the event stream into a JSON run report.
//
// The design keeps the disabled path free: the optimizer holds a Sink
// that may be nil and guards every emission with one nil-check, so a
// run without telemetry pays no allocations and no synchronization.
// When a sink IS attached, events are plain structs — the stream is the
// progress surface a long-running service (cmd/diversifyd) attaches a
// client to, and the same stream drives the human stderr ticker, the
// metrics registry and the end-of-run report.
//
// Telemetry observes the search, never perturbs it: events carry wall
// times (monotonic, relative to run start) but no event feeds back into
// a search decision, so a run's Result stays byte-identical whether a
// sink is attached or not (test-asserted in internal/optimize).
package telemetry

import (
	"sync"
	"time"
)

// Event is one structured progress event. The concrete types below are
// the full set; sinks type-switch on them. Kind returns a stable snake
// case tag (useful for serializing streams).
type Event interface {
	Kind() string
}

// RunStarted opens a run's event stream: the search shape, before the
// baseline evaluation.
type RunStarted struct {
	Strategy  string
	Objective string
	Budget    float64
	// Options / Rotations size the search space; Reps and Workers size
	// one evaluation.
	Options   int
	Rotations int
	Reps      int
	Workers   int
}

// Kind implements Event.
func (RunStarted) Kind() string { return "run_started" }

// RoundCompleted reports one completed search round (a greedy round, an
// annealing proposal, an NSGA-II generation). A round of the run's
// strategy mirrors one step of the result's trace; a seeding round
// mirrors a step the seeding pass discards. Both carry the monotonic
// elapsed time — which is deliberately OUTSIDE the byte-identity surface.
type RoundCompleted struct {
	// Strategy names the emitting stage ("greedy", "anneal", ...); the
	// pareto search's greedy seeding rounds report as "greedy".
	Strategy string
	// Seeding marks a round of a seeding pass (pareto's greedy
	// trajectory): the report bills it to its stage but does not count it
	// in Report.Rounds.
	Seeding bool
	Round   int
	Action  string
	// Value/Cost score the round's candidate; Incumbent is the best
	// objective value seen so far; Accepted mirrors the trace.
	Value     float64
	Cost      float64
	Incumbent float64
	Accepted  bool
	// FrontSize is the current non-dominated front width (NSGA-II
	// generations; 0 for scalar strategies).
	FrontSize int
	// Evaluations / CacheHits are the evaluator's cumulative counters at
	// the end of the round.
	Evaluations int
	CacheHits   int
	// Elapsed is the monotonic time since the run started.
	Elapsed time.Duration
}

// Kind implements Event.
func (RoundCompleted) Kind() string { return "round_completed" }

// EvaluationBatch reports one simulated candidate: a batch of
// replications fanned across the worker pool (or a single durable-store
// serve). Cache hits emit no event of their own — the cumulative
// counters carried here and on RoundCompleted keep the split visible
// without a ~400 ns event per memoized lookup.
type EvaluationBatch struct {
	Fingerprint uint64
	// Replications counts the replications simulated for this candidate,
	// a reference recording it triggered included; Replayed counts the
	// ones copied from the reference instead (see optimize.Evaluator).
	Replications int
	Replayed     int
	// FromStore marks a warm-start serve from the durable evaluation
	// store (no replications were spent).
	FromStore bool
	// Duration is the wall time of this batch's simulation (0 for
	// store serves).
	Duration time.Duration
	// Cumulative evaluator counters after this batch.
	Evaluations int
	CacheHits   int
	StoreHits   int
}

// Kind implements Event.
func (EvaluationBatch) Kind() string { return "evaluation_batch" }

// WorkerQuarantined reports a candidate evaluation that panicked
// repeatedly and was scored infeasible instead of crashing the run. It
// is emitted once per quarantine, from the goroutine that requested the
// evaluation, and names the lowest-indexed replication that kept
// panicking and the worker that ran it.
type WorkerQuarantined struct {
	Worker      int
	Replication int
	Attempts    int
	Cause       string
}

// Kind implements Event.
func (WorkerQuarantined) Kind() string { return "worker_quarantined" }

// StoreWarmStart reports an opened durable evaluation store at startup:
// the prior work a warm-started or resumed run may reuse (Evaluations =
// measurements and quarantine verdicts already on disk).
type StoreWarmStart struct {
	Path        string
	Evaluations int
}

// Kind implements Event.
func (StoreWarmStart) Kind() string { return "store_warm_start" }

// ExplanationReady announces one aggregated causal explanation report
// (the post-search trace replay of a comparison candidate — see
// internal/trace and Result.Explanations). Counts only: the report
// itself travels on the Result, which owns the byte-identity surface.
type ExplanationReady struct {
	// Candidate labels the explained candidate ("baseline", "best");
	// Rotation names its schedule.
	Candidate string
	Rotation  string
	// Sampled is how many replications were traced, Records the total
	// captured records, Paths / ChokePoints the report table sizes.
	Sampled     int
	Records     int
	Paths       int
	ChokePoints int
}

// Kind implements Event.
func (ExplanationReady) Kind() string { return "explanation_ready" }

// RunFinished closes the stream with the authoritative run totals —
// the same accounting the Result reports, so a collector's report sums
// consistently with the returned Result by construction.
type RunFinished struct {
	Strategy string
	Best     float64
	// Evaluations counts the distinct candidates the search scored,
	// simulated or store-served (== cache misses); Replications is
	// Evaluations × reps. Both are logical counts: a store-resumed run
	// reports the uninterrupted run's numbers.
	Evaluations  int
	CacheHits    int
	StoreHits    int
	StorePuts    int
	Replications int
	// Simulated counts the replications the run actually simulated and
	// Replayed the ones copied from a reference candidate; unlike
	// Replications they are effort, not logical counts (a store-served
	// run simulates nothing).
	Simulated int
	Replayed  int
	// Fault-tolerance accounting: replication retry attempts and
	// quarantined candidates.
	Retries     int
	Quarantined int
	// Degraded is empty for a completed run, else the interruption
	// reason.
	Degraded string
	Elapsed  time.Duration
}

// Kind implements Event.
func (RunFinished) Kind() string { return "run_finished" }

// Sink receives the progress-event stream. Implementations MUST be safe
// for concurrent use: events arrive from the search loop, possibly
// while a /metrics scrape reads the registry. Emit must not block for
// long — it runs inline on the search path when enabled.
type Sink interface {
	Emit(Event)
}

// Multi fans events out to several sinks in order, skipping nil
// entries. A nil result (no usable sinks) means "disabled" to callers
// that nil-check their sink.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Recorder is a Sink that stores every event in order — the recording
// sink the determinism tests attach, also useful as a debugging tap.
type Recorder struct {
	mu     sync.Mutex
	events []Event //diversify:guardedby mu
}

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a snapshot of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Count returns how many events of the given kind were recorded ("" =
// all events).
func (r *Recorder) Count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == "" {
		return len(r.events)
	}
	n := 0
	for _, e := range r.events {
		if e.Kind() == kind {
			n++
		}
	}
	return n
}

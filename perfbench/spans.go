package main

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"diversify/internal/optimize"
	"diversify/internal/rng"
	"diversify/internal/telemetry"
)

// span is one timed interval of a traced run. Times are microseconds
// from the recorder's origin; Parent is -1 for a root span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
	// Ops is how many operations a probe span timed.
	Ops int `json:"ops,omitempty"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// recorder keeps a traced run's spans in memory. The optimization's
// spans come from its progress-event stream: run → prelude | search |
// finish, search → round, and every simulated evaluation batch under
// whichever of those was open when the batch ended. Probe calls are
// root spans of their own.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// phase is the innermost open span of the run (prelude, search's
	// current round, or finish); batches become its children.
	run, search, phase int
	// finished carries the run's final counts.
	finished telemetry.RunFinished
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), run: -1, search: -1, phase: -1} }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.origin).Nanoseconds()) / 1e3 }

// open starts a span at t and returns its ID. Callers hold mu.
func (r *recorder) open(name string, parent int, t time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartUS: r.us(t), EndUS: -1})
	return id
}

// close ends span id at t. Callers hold mu.
func (r *recorder) close(id int, t time.Time) {
	if id >= 0 {
		r.spans[id].EndUS = r.us(t)
	}
}

// add records a finished span.
func (r *recorder) add(name string, parent int, start, end time.Time, ops int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.open(name, parent, start)
	r.close(id, end)
	r.spans[id].Ops = ops
	return id
}

// Emit implements telemetry.Sink.
func (r *recorder) Emit(e telemetry.Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev := e.(type) {
	case telemetry.EvaluationBatch:
		if !ev.FromStore {
			r.close(r.open("batch", r.phase, now.Add(-ev.Duration)), now)
		}
	case telemetry.RoundCompleted:
		r.close(r.phase, now)
		r.phase = r.open("round", r.search, now)
	case telemetry.RunFinished:
		r.finished = ev
	}
}

// traced wraps a strategy so the recorder sees where the search starts
// and ends. It keeps the strategy's name, which seeds the search, so
// the wrapped run's answer is the unwrapped one's.
type traced struct {
	optimize.Optimizer
	rec *recorder
}

func (t traced) Search(ctx context.Context, p *optimize.Problem, ev *optimize.Evaluator, rr *rng.Rand) ([]optimize.TraceStep, error) {
	r := t.rec
	now := time.Now()
	r.mu.Lock()
	r.close(r.phase, now)
	r.search = r.open("search", r.run, now)
	r.phase = r.open("round", r.search, now)
	r.mu.Unlock()
	steps, err := t.Optimizer.Search(ctx, p, ev, rr)
	now = time.Now()
	r.mu.Lock()
	// The span after the last accepted round is the round that found no
	// improving move (greedy) or the search's return (anneal).
	r.close(r.phase, now)
	r.close(r.search, now)
	r.phase = r.open("finish", r.run, now)
	r.mu.Unlock()
	return steps, err
}

// runTraced runs one optimization under the recorder, beside any sink
// opts already has.
func (r *recorder) runTraced(ctx context.Context, p optimize.Problem, o optimize.Optimizer, opts optimize.RunOptions) (*optimize.Result, error) {
	opts.Sink = telemetry.Multi(opts.Sink, r)
	now := time.Now()
	r.mu.Lock()
	r.run = r.open("run", -1, now)
	r.phase = r.open("prelude", r.run, now)
	r.mu.Unlock()
	res, err := optimize.RunWith(ctx, p, traced{Optimizer: o, rec: r}, opts)
	now = time.Now()
	r.mu.Lock()
	r.close(r.phase, now)
	r.close(r.run, now)
	r.phase = -1
	r.mu.Unlock()
	return res, err
}

// finish computes every span's self time — its duration minus the part
// of it its children cover — and returns the spans.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	return slices.Clone(r.spans)
}

// selfTimes fills SelfUS for spans whose IDs are their indices.
func selfTimes(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		kids := children[spans[i].ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUS < kids[b].StartUS })
		covered, end := 0.0, spans[i].StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, end), min(k.EndUS, spans[i].EndUS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		spans[i].SelfUS = spans[i].dur() - covered
	}
}

// strategyLayers derives the optimize strategy metrics from a finished
// run's spans and counters.
func (r *recorder) strategyLayers(spans []span) map[string]float64 {
	var runDur, simulate, bookkeeping float64
	var rounds []float64
	for _, s := range spans {
		switch s.Name {
		case "run":
			runDur = s.dur()
		case "batch":
			simulate += s.dur()
		case "search":
			bookkeeping += s.SelfUS
		case "round":
			bookkeeping += s.SelfUS
			rounds = append(rounds, s.dur()/1e3)
		}
	}
	f := r.finished
	out := map[string]float64{
		"optimize.round_ms":          median(rounds),
		"optimize.simulate_share":    simulate / runDur,
		"optimize.bookkeeping_share": bookkeeping / runDur,
		"optimize.memo_hit_ratio":    ratio(f.CacheHits, f.CacheHits+f.Evaluations),
		"optimize.store_hit_ratio":   ratio(f.StoreHits, f.Evaluations),
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

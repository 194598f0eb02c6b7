package optimize

import (
	"testing"
	"time"

	"diversify/internal/telemetry"
)

// countingSink is a minimal live sink: one atomic-free counter bump per
// event, so the bench measures the emission machinery, not a consumer.
type countingSink struct{ n int }

func (s *countingSink) Emit(telemetry.Event) { s.n++ }

// BenchmarkEvalCacheInstrumented scores a memoized candidate with a sink
// attached: the memoized path emits nothing, so the contrast with
// perfbench's bare optimize.score_hit_ns isolates what a live sink costs
// cache hits (nothing).
func BenchmarkEvalCacheInstrumented(b *testing.B) {
	p := benchProblem()
	p.normalize()
	if err := p.validate(); err != nil {
		b.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		b.Fatal(err)
	}
	ev.sink = &countingSink{}
	ev.started = time.Now()
	cand := Candidate{A: p.base(), Rot: -1}
	if _, err := ev.Score(cand); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Score(cand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalMissInstrumented scores a candidate from scratch with a
// sink attached: each miss pays one clock pair and one EvaluationBatch
// emission on top of the simulation itself (perfbench's
// optimize.score_miss_ms is the bare miss).
func BenchmarkEvalMissInstrumented(b *testing.B) {
	p := benchProblem()
	p.normalize()
	if err := p.validate(); err != nil {
		b.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		b.Fatal(err)
	}
	ev.sink = &countingSink{}
	ev.started = time.Now()
	cand := Candidate{A: p.base(), Rot: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delete(ev.cache, cand.fingerprint(ev.rotFPs))
		ev.archive = ev.archive[:0]
		if _, err := ev.Score(cand); err != nil {
			b.Fatal(err)
		}
	}
}

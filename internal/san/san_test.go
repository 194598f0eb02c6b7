package san

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"diversify/internal/des"
	"diversify/internal/rng"
)

func mustSim(t *testing.T, m *Model, seed uint64) *Sim {
	t.Helper()
	s, err := NewSim(m, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run executes s to the horizon.
func run(s *Sim, horizon float64) error {
	_, _, err := s.RunUntil(horizon, func(Marking) bool { return false })
	return err
}

// step is the clock and the marking after one event.
type step struct {
	t  float64
	mk string
}

// runTrace executes s to the horizon and records every step.
func runTrace(s *Sim, horizon float64) ([]step, error) {
	var out []step
	_, _, err := s.RunUntil(horizon, func(mk Marking) bool {
		out = append(out, step{t: s.Now(), mk: fmt.Sprint(mk)})
		return false
	})
	return out, err
}

func TestSimpleTimedTransfer(t *testing.T) {
	m := NewModel()
	src := m.Place("src", 1)
	dst := m.Place("dst", 0)
	m.TimedActivity("move", rng.Deterministic{Value: 2.5}).Input(src, 1).Output(dst, 1)

	s := mustSim(t, m, 1)
	ok, at, err := s.RunUntil(10, func(mk Marking) bool { return mk[dst] == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !ok || at != 2.5 {
		t.Fatalf("ok=%v at=%v, want the move at 2.5", ok, at)
	}
	if s.Marking().Tokens(src) != 0 || s.Marking().Tokens(dst) != 1 {
		t.Fatalf("marking = %v, want [0 1]", s.Marking())
	}
}

func TestActivityWaitsForTokens(t *testing.T) {
	m := NewModel()
	src := m.Place("src", 0) // empty: activity never enabled
	dst := m.Place("dst", 0)
	m.TimedActivity("move", rng.Deterministic{Value: 1}).Input(src, 1).Output(dst, 1)
	s := mustSim(t, m, 1)
	if err := run(s, 100); err != nil {
		t.Fatal(err)
	}
	if s.Marking().Tokens(dst) != 0 {
		t.Fatal("disabled activity fired")
	}
}

func TestMultiTokenArc(t *testing.T) {
	m := NewModel()
	src := m.Place("src", 5)
	dst := m.Place("dst", 0)
	m.TimedActivity("batch", rng.Deterministic{Value: 1}).Input(src, 2).Output(dst, 1)
	s := mustSim(t, m, 1)
	if err := run(s, 10); err != nil {
		t.Fatal(err)
	}
	// 5 tokens allow two firings (consuming 4), leaving 1.
	if s.Marking().Tokens(src) != 1 || s.Marking().Tokens(dst) != 2 {
		t.Fatalf("marking = %v, want src=1 dst=2", s.Marking())
	}
}

func TestCaseProbabilities(t *testing.T) {
	const reps = 4000
	wins := 0
	for i := 0; i < reps; i++ {
		m := NewModel()
		src := m.Place("src", 1)
		a := m.Place("a", 0)
		b := m.Place("b", 0)
		m.TimedActivity("branch", rng.Deterministic{Value: 1}).
			Input(src, 1).
			Case(Case{Name: "toA", Prob: 0.3, Outputs: []Arc{{Place: a, Tokens: 1}}}).
			Case(Case{Name: "toB", Prob: 0.7, Outputs: []Arc{{Place: b, Tokens: 1}}})
		s := mustSim(t, m, uint64(i))
		if err := run(s, 2); err != nil {
			t.Fatal(err)
		}
		if s.Marking().Tokens(a) == 1 {
			wins++
		}
	}
	got := float64(wins) / reps
	if math.Abs(got-0.3) > 0.025 {
		t.Fatalf("case A frequency %v, want ~0.3", got)
	}
}

func TestInputGateBlocks(t *testing.T) {
	m := NewModel()
	gate := m.Place("gate", 0)
	src := m.Place("src", 1)
	dst := m.Place("dst", 0)
	m.TimedActivity("open", rng.Deterministic{Value: 5}).Input(src, 1).Output(dst, 1)
	m.activities[0].Guard("gateOpen", func(mk Marking) bool { return mk[gate] > 0 })
	// Another activity opens the gate at t=3.
	aux := m.Place("aux", 1)
	m.TimedActivity("opener", rng.Deterministic{Value: 3}).Input(aux, 1).Output(gate, 1)

	s := mustSim(t, m, 1)
	ok, at, err := s.RunUntil(100, func(mk Marking) bool { return mk[dst] > 0 })
	if err != nil {
		t.Fatal(err)
	}
	// "open" samples its 5-unit delay only once enabled at t=3 → fires at 8.
	if !ok || at != 8 {
		t.Fatalf("gated activity fired at %v (ok=%v), want 8", at, ok)
	}
}

func TestOutputGateFunction(t *testing.T) {
	m := NewModel()
	src := m.Place("src", 1)
	counter := m.Place("counter", 0)
	m.TimedActivity("boost", rng.Deterministic{Value: 1}).
		Input(src, 1).
		Case(Case{
			Name: "only", Prob: 1,
			Gates: []OutputGate{{Name: "setCounter", Fn: func(mk Marking) { mk[counter] = 42 }}},
		})
	s := mustSim(t, m, 1)
	if err := run(s, 5); err != nil {
		t.Fatal(err)
	}
	if s.Marking().Tokens(counter) != 42 {
		t.Fatalf("output gate did not run: counter = %d", s.Marking().Tokens(counter))
	}
}

func TestRaceCancelsLoserTimer(t *testing.T) {
	// Two exponential activities compete for one token; the winner's rate
	// fraction should match rate1/(rate1+rate2).
	const reps = 4000
	const r1, r2 = 3.0, 1.0
	wins := 0
	for i := 0; i < reps; i++ {
		m := NewModel()
		src := m.Place("src", 1)
		a := m.Place("a", 0)
		b := m.Place("b", 0)
		m.TimedActivity("fast", rng.Exponential{Rate: r1}).Input(src, 1).Output(a, 1)
		m.TimedActivity("slow", rng.Exponential{Rate: r2}).Input(src, 1).Output(b, 1)
		s := mustSim(t, m, uint64(i)+999)
		if err := run(s, 1000); err != nil {
			t.Fatal(err)
		}
		total := s.Marking().Tokens(a) + s.Marking().Tokens(b)
		if total != 1 {
			t.Fatalf("race produced %d tokens, want exactly 1", total)
		}
		if s.Marking().Tokens(a) == 1 {
			wins++
		}
	}
	got := float64(wins) / reps
	want := r1 / (r1 + r2)
	if math.Abs(got-want) > 0.025 {
		t.Fatalf("fast-activity win rate %v, want ~%v", got, want)
	}
}

// An activity disabled and re-enabled while its first completion is
// still pending must complete at the time sampled on re-enabling: the
// first completion is stale even though the activity is armed again.
func TestReenabledActivityIgnoresStaleCompletion(t *testing.T) {
	m := NewModel()
	ready := m.Place("ready", 1)
	done := m.Place("done", 0)
	open := m.Place("open", 1)
	closed := m.Place("closed", 0)
	once := m.Place("once", 1)
	stage := m.TimedActivity("stage", rng.Deterministic{Value: 3}).Input(ready, 1).Output(done, 1)
	stage.Guard("open", func(mk Marking) bool { return mk[open] > 0 })
	// close disables stage at t=1; reopen re-enables it at t=1.5.
	m.TimedActivity("close", rng.Deterministic{Value: 1}).Input(once, 1).Input(open, 1).Output(closed, 1)
	m.TimedActivity("reopen", rng.Deterministic{Value: 0.5}).Input(closed, 1).Output(open, 1)

	s := mustSim(t, m, 1)
	ok, at, err := s.RunUntil(100, func(mk Marking) bool { return mk[done] > 0 })
	if err != nil {
		t.Fatal(err)
	}
	// The completion sampled at t=0 (due at 3) is stale; the one sampled
	// on re-enabling at t=1.5 is due at 4.5.
	if !ok || at != 4.5 {
		t.Fatalf("stage completed at %v (ok=%v), want 4.5", at, ok)
	}
}

func TestRunUntil(t *testing.T) {
	m := NewModel()
	stage := m.Place("stage", 0)
	feeder := m.Place("feeder", 3)
	m.TimedActivity("step", rng.Deterministic{Value: 2}).Input(feeder, 1).Output(stage, 1)
	s := mustSim(t, m, 1)
	ok, at, err := s.RunUntil(100, func(mk Marking) bool { return mk[stage] >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	if !ok || at != 4 {
		t.Fatalf("ok=%v at=%v, want true at 4", ok, at)
	}
}

// A NaN horizon is an error, not a run to exhaustion: no event time
// compares past NaN, so a self-enabling activity like this one would
// fire forever.
func TestRunUntilRejectsNaNHorizon(t *testing.T) {
	m := NewModel()
	p := m.Place("p", 1)
	m.TimedActivity("spin", rng.Deterministic{Value: 1}).Input(p, 1).Output(p, 1)
	s := mustSim(t, m, 1)
	ok, _, err := s.RunUntil(math.NaN(), func(Marking) bool { return false })
	if ok || !errors.Is(err, des.ErrNaNHorizon) {
		t.Fatalf("RunUntil(NaN) = %v, %v, want false, des.ErrNaNHorizon", ok, err)
	}
	if s.Now() != 0 {
		t.Fatalf("NaN horizon advanced the clock to %v", s.Now())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	m := NewModel()
	p := m.Place("p", 0)
	s := mustSim(t, m, 1)
	ok, _, err := s.RunUntil(5, func(mk Marking) bool { return mk[p] > 0 })
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("predicate reported satisfied on empty model")
	}
}

func TestValidationErrors(t *testing.T) {
	t.Run("bad case probs", func(t *testing.T) {
		m := NewModel()
		p := m.Place("p", 1)
		m.TimedActivity("a", rng.Deterministic{Value: 1}).Input(p, 1).
			Case(Case{Prob: 0.4}).Case(Case{Prob: 0.4})
		if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no cases", func(t *testing.T) {
		m := NewModel()
		p := m.Place("p", 1)
		m.TimedActivity("a", rng.Deterministic{Value: 1}).Input(p, 1)
		if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("zero multiplicity", func(t *testing.T) {
		m := NewModel()
		p := m.Place("p", 1)
		m.TimedActivity("a", rng.Deterministic{Value: 1}).Input(p, 0).Output(p, 1)
		if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown place", func(t *testing.T) {
		m := NewModel()
		m.TimedActivity("a", rng.Deterministic{Value: 1}).Input(PlaceID(7), 1).Output(PlaceID(7), 1)
		if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestDynamicWeights(t *testing.T) {
	// WeightFn that always favors case B regardless of declared Prob.
	const reps = 500
	bWins := 0
	for i := 0; i < reps; i++ {
		m := NewModel()
		src := m.Place("src", 1)
		a := m.Place("a", 0)
		b := m.Place("b", 0)
		m.TimedActivity("branch", rng.Deterministic{Value: 1}).
			Input(src, 1).
			Case(Case{Name: "A", WeightFn: func(Marking) float64 { return 0 },
				Outputs: []Arc{{Place: a, Tokens: 1}}}).
			Case(Case{Name: "B", WeightFn: func(Marking) float64 { return 5 },
				Outputs: []Arc{{Place: b, Tokens: 1}}})
		s := mustSim(t, m, uint64(i))
		if err := run(s, 2); err != nil {
			t.Fatal(err)
		}
		if s.Marking().Tokens(b) == 1 {
			bWins++
		}
	}
	if bWins != reps {
		t.Fatalf("zero-weight case selected %d times", reps-bWins)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		src := m.Place("src", 10)
		mid := m.Place("mid", 0)
		dst := m.Place("dst", 0)
		m.TimedActivity("first", rng.Exponential{Rate: 1}).Input(src, 1).Output(mid, 1)
		m.TimedActivity("second", rng.Exponential{Rate: 2}).Input(mid, 1).
			Case(Case{Name: "ok", Prob: 0.6, Outputs: []Arc{{Place: dst, Tokens: 1}}}).
			Case(Case{Name: "back", Prob: 0.4, Outputs: []Arc{{Place: src, Tokens: 1}}})
		return m
	}
	trace := func() []step {
		steps, err := runTrace(mustSim(t, build(), 77), 50)
		if err != nil {
			t.Fatal(err)
		}
		return steps
	}
	t1, t2 := trace(), trace()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
}

// Property: in a closed token-ring model, total tokens are conserved.
func TestQuickTokenConservation(t *testing.T) {
	f := func(seed uint64, tokensRaw uint8) bool {
		tokens := int(tokensRaw%10) + 1
		m := NewModel()
		a := m.Place("a", tokens)
		b := m.Place("b", 0)
		c := m.Place("c", 0)
		m.TimedActivity("ab", rng.Exponential{Rate: 2}).Input(a, 1).Output(b, 1)
		m.TimedActivity("bc", rng.Exponential{Rate: 3}).Input(b, 1).Output(c, 1)
		m.TimedActivity("ca", rng.Exponential{Rate: 1}).Input(c, 1).Output(a, 1)
		s, err := NewSim(m, rng.New(seed))
		if err != nil {
			return false
		}
		if err := run(s, 20); err != nil {
			return false
		}
		mk := s.Marking()
		return mk[a]+mk[b]+mk[c] == tokens && mk[a] >= 0 && mk[b] >= 0 && mk[c] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestResampleFlag(t *testing.T) {
	// With resample on, a competing firing restarts the other activity's
	// clock; the run must still complete without error and conserve tokens.
	m := NewModel()
	src := m.Place("src", 5)
	a := m.Place("a", 0)
	b := m.Place("b", 0)
	m.TimedActivity("toA", rng.Exponential{Rate: 1}).Input(src, 1).Output(a, 1).SetResample(true)
	m.TimedActivity("toB", rng.Exponential{Rate: 1}).Input(src, 1).Output(b, 1).SetResample(true)
	s := mustSim(t, m, 5)
	if err := run(s, 1000); err != nil {
		t.Fatal(err)
	}
	mk := s.Marking()
	if mk[src] != 0 || mk[a]+mk[b] != 5 {
		t.Fatalf("marking = %v", mk)
	}
}

func TestAttackStagePipelineShape(t *testing.T) {
	// A miniature attack-progression SAN mirroring the paper's stages:
	// initial → activated → root → propagation → impairment, each stage a
	// timed activity with a success/abort case.
	m := NewModel()
	stages := []PlaceID{
		m.Place("initial", 1),
		m.Place("activated", 0),
		m.Place("root", 0),
		m.Place("propagation", 0),
		m.Place("impairment", 0),
	}
	aborted := m.Place("aborted", 0)
	for i := 0; i < len(stages)-1; i++ {
		m.TimedActivity("stage", rng.Exponential{Rate: 1}).
			Input(stages[i], 1).
			Case(Case{Name: "ok", Prob: 0.9, Outputs: []Arc{{Place: stages[i+1], Tokens: 1}}}).
			Case(Case{Name: "fail", Prob: 0.1, Outputs: []Arc{{Place: aborted, Tokens: 1}}})
	}
	succ := 0
	const reps = 2000
	for i := 0; i < reps; i++ {
		s, err := NewSim(m, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ok, _, err := s.RunUntil(1e6, func(mk Marking) bool {
			return mk[stages[len(stages)-1]] > 0 || mk[aborted] > 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("attack pipeline did not terminate")
		}
		if s.Marking().Tokens(stages[len(stages)-1]) > 0 {
			succ++
		}
	}
	got := float64(succ) / reps
	want := math.Pow(0.9, 4)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("pipeline success rate %v, want ~%v", got, want)
	}
}

func BenchmarkSANRing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewModel()
		a := m.Place("a", 3)
		bb := m.Place("b", 0)
		c := m.Place("c", 0)
		m.TimedActivity("ab", rng.Exponential{Rate: 2}).Input(a, 1).Output(bb, 1)
		m.TimedActivity("bc", rng.Exponential{Rate: 3}).Input(bb, 1).Output(c, 1)
		m.TimedActivity("ca", rng.Exponential{Rate: 1}).Input(c, 1).Output(a, 1)
		s, err := NewSim(m, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := run(s, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResampleStarvation pins down the semantics difference the
// reactivation ablation (experiment E11) exploits: with
// default keep-timer semantics a deterministic activity completes on
// schedule even while unrelated activities churn the marking; with
// resample-on-any-change semantics the churn perpetually restarts its
// clock and it starves. (For exponential delays the two semantics
// coincide by memorylessness.)
func TestResampleStarvation(t *testing.T) {
	build := func(resample bool) (*Model, PlaceID) {
		m := NewModel()
		ready := m.Place("ready", 1)
		done := m.Place("done", 0)
		beat := m.Place("heartbeat", 1)
		stage := m.TimedActivity("stage", rng.Deterministic{Value: 2.0}).
			Input(ready, 1).Output(done, 1)
		stage.SetResample(resample)
		// Monitoring heartbeat: self-loop firing every 0.9 time units,
		// churning the marking without touching the stage's inputs.
		m.TimedActivity("beat", rng.Deterministic{Value: 0.9}).
			Input(beat, 1).Output(beat, 1)
		return m, done
	}
	// Keep semantics: stage completes at t=2.
	m, done := build(false)
	s, err := NewSim(m, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ok, at, err := s.RunUntil(10, func(mk Marking) bool { return mk.Tokens(done) > 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !ok || at != 2 {
		t.Fatalf("keep semantics: ok=%v at=%v, want completion at 2", ok, at)
	}
	// Resample semantics: heartbeat every 0.9 restarts the 2.0 timer.
	m, done = build(true)
	s, err = NewSim(m, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err = s.RunUntil(10, func(mk Marking) bool { return mk.Tokens(done) > 0 })
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("resample semantics: stage completed despite perpetual restarts")
	}
}

// TestResampleExponentialEquivalence: with exponential delays the two
// semantics give statistically indistinguishable completion times
// (memorylessness), which is why the E3 experiment is robust to the
// semantics choice.
func TestResampleExponentialEquivalence(t *testing.T) {
	mean := func(resample bool, seed uint64) float64 {
		total := 0.0
		const reps = 3000
		for i := 0; i < reps; i++ {
			m := NewModel()
			ready := m.Place("ready", 1)
			done := m.Place("done", 0)
			beat := m.Place("beat", 1)
			stage := m.TimedActivity("stage", rng.Exponential{Rate: 0.5}).
				Input(ready, 1).Output(done, 1)
			stage.SetResample(resample)
			m.TimedActivity("beat", rng.Exponential{Rate: 1.1}).
				Input(beat, 1).Output(beat, 1)
			s, err := NewSim(m, rng.New(seed+uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			ok, at, err := s.RunUntil(1e6, func(mk Marking) bool { return mk.Tokens(done) > 0 })
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("exponential stage never completed")
			}
			total += at
		}
		return total / reps
	}
	keep := mean(false, 10)
	res := mean(true, 20)
	if math.Abs(keep-2.0) > 0.12 {
		t.Fatalf("keep-semantics mean %v, want ~2.0", keep)
	}
	if math.Abs(res-keep) > 0.15 {
		t.Fatalf("semantics diverge under exponential delays: keep=%v resample=%v", keep, res)
	}
}

// Package san implements Stochastic Activity Networks (SANs), the
// formalism the paper uses for attack modeling (§II, "Attack Modeling";
// the authors built their SCoPE case-study model "by means of the
// stochastic activity networks (SAN) formalism").
//
// A SAN is a stochastic extension of Petri nets:
//
//   - places hold tokens; the vector of token counts is the marking;
//   - activities (transitions) are timed: their delay is drawn from a
//     distribution;
//   - input arcs and input gates control enabling: an activity is enabled
//     when every input arc's place holds enough tokens and every input
//     gate's predicate holds;
//   - on completion an activity consumes its input arcs, selects one of
//     its cases at random, then adds that case's output-arc tokens and
//     executes its output gates.
//
// Timer semantics follow the Möbius default: a timed activity samples its
// completion time when it becomes enabled and keeps it while it stays
// continuously enabled; if a marking change disables it, the timer is
// discarded. Setting Activity.Resample forces resampling on every marking
// change (the ablation knob used by experiment E3).
package san

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"diversify/internal/des"
	"diversify/internal/rng"
)

// ErrInvalidModel reports a malformed model, or a run that drove it
// into an invalid state (a negative marking or an invalid sampled delay).
var ErrInvalidModel = errors.New("san: invalid model")

// PlaceID identifies a place within its model.
type PlaceID int

// Marking is the token count per place, indexed by PlaceID.
type Marking []int

// Tokens returns the token count of place p.
func (m Marking) Tokens(p PlaceID) int { return m[p] }

// Arc connects an activity to a place with a token multiplicity.
type Arc struct {
	Place  PlaceID
	Tokens int
}

// InputGate is a guard: the owning activity is enabled only while
// Enabled holds.
type InputGate struct {
	Name    string
	Enabled func(m Marking) bool
}

// OutputGate transforms the marking when a case is selected.
type OutputGate struct {
	Name string
	Fn   func(m Marking)
}

// Case is one probabilistic outcome of an activity. Prob values of an
// activity's cases must sum to 1 (validated). WeightFn, when set,
// overrides Prob with a marking-dependent unnormalized weight.
type Case struct {
	Name     string
	Prob     float64
	WeightFn func(m Marking) float64
	Outputs  []Arc
	Gates    []OutputGate
}

// Activity is a SAN activity (transition).
type Activity struct {
	name     string
	dist     rng.Dist
	resample bool
	inputs   []Arc
	gates    []InputGate
	cases    []Case

	model *Model
	id    int
}

// SetResample makes the activity resample its firing time on every marking
// change while enabled (instead of only when disabled). Used for semantics
// ablation.
func (a *Activity) SetResample(v bool) *Activity { a.resample = v; return a }

// Input adds a plain input arc requiring (and consuming) tokens from p.
func (a *Activity) Input(p PlaceID, tokens int) *Activity {
	a.inputs = append(a.inputs, Arc{Place: p, Tokens: tokens})
	return a
}

// Guard adds an input gate with only a predicate.
func (a *Activity) Guard(name string, pred func(m Marking) bool) *Activity {
	a.gates = append(a.gates, InputGate{Name: name, Enabled: pred})
	return a
}

// Case appends a probabilistic case. Use a single case with Prob 1 for
// deterministic outcomes.
func (a *Activity) Case(c Case) *Activity {
	a.cases = append(a.cases, c)
	return a
}

// Output is shorthand for a single certain case that deposits tokens into p.
func (a *Activity) Output(p PlaceID, tokens int) *Activity {
	if len(a.cases) == 0 {
		a.cases = append(a.cases, Case{Name: "default", Prob: 1})
	}
	c := &a.cases[len(a.cases)-1]
	c.Outputs = append(c.Outputs, Arc{Place: p, Tokens: tokens})
	return a
}

// Model is a SAN definition: places, activities and an initial marking.
// Build it with the fluent API, Validate it once, then execute it any
// number of times with NewSim (each Sim owns an independent marking).
type Model struct {
	placeNames []string
	initial    Marking
	activities []*Activity
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Place declares a place with an initial token count and returns its ID.
func (m *Model) Place(name string, initialTokens int) PlaceID {
	m.placeNames = append(m.placeNames, name)
	m.initial = append(m.initial, initialTokens)
	return PlaceID(len(m.placeNames) - 1)
}

// TimedActivity declares an activity whose completion delay is drawn from
// dist each time it becomes enabled.
func (m *Model) TimedActivity(name string, dist rng.Dist) *Activity {
	a := &Activity{name: name, dist: dist, model: m, id: len(m.activities)}
	m.activities = append(m.activities, a)
	return a
}

// Validate checks structural well-formedness: arcs reference declared
// places, every activity has at least one case, fixed case probabilities
// sum to 1, activities have a distribution.
func (m *Model) Validate() error {
	checkArc := func(owner string, arc Arc) error {
		if arc.Place < 0 || int(arc.Place) >= len(m.placeNames) {
			return fmt.Errorf("%w: activity %q references unknown place %d", ErrInvalidModel, owner, arc.Place)
		}
		if arc.Tokens <= 0 {
			return fmt.Errorf("%w: activity %q arc to %q has non-positive multiplicity %d",
				ErrInvalidModel, owner, m.placeNames[arc.Place], arc.Tokens)
		}
		return nil
	}
	for _, a := range m.activities {
		if a.dist == nil {
			return fmt.Errorf("%w: timed activity %q has no distribution", ErrInvalidModel, a.name)
		}
		if len(a.cases) == 0 {
			return fmt.Errorf("%w: activity %q has no cases", ErrInvalidModel, a.name)
		}
		for _, arc := range a.inputs {
			if err := checkArc(a.name, arc); err != nil {
				return err
			}
		}
		sum := 0.0
		dynamic := false
		for _, c := range a.cases {
			if c.WeightFn != nil {
				dynamic = true
			}
			sum += c.Prob
			for _, arc := range c.Outputs {
				if err := checkArc(a.name, arc); err != nil {
					return err
				}
			}
		}
		if !dynamic && math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("%w: activity %q case probabilities sum to %v, want 1",
				ErrInvalidModel, a.name, sum)
		}
	}
	return nil
}

// enabled reports whether a may fire under marking mk.
func (a *Activity) enabled(mk Marking) bool {
	for _, arc := range a.inputs {
		if mk[arc.Place] < arc.Tokens {
			return false
		}
	}
	for _, g := range a.gates {
		if g.Enabled != nil && !g.Enabled(mk) {
			return false
		}
	}
	return true
}

// Sim executes one trajectory of a Model. Create one Sim per replication;
// a Sim is single-goroutine only.
type Sim struct {
	model   *Model
	marking Marking
	eng     *des.Sim
	r       *rng.Rand
	timers  []timer // per activity
	// onComplete is s.complete, bound once so scheduling a completion
	// allocates no method value.
	onComplete func(des.Payload)
	err        error
}

// timer is an activity's completion state. armed is set while a
// completion event is pending and valid. gen is bumped whenever the
// activity is disarmed — disabled, resampled or completed — and a
// completion event carries the gen it was scheduled under, so an event
// whose activity has since been disarmed is stale and is ignored.
type timer struct {
	armed bool
	gen   uint32
}

// disarm invalidates the activity's pending completion, if any.
func (t *timer) disarm() {
	t.armed = false
	t.gen++
}

// NewSim creates a simulator over model with the given RNG stream, on a
// copy of the initial marking. It re-validates the model and returns the
// error, if any.
func NewSim(model *Model, r *rng.Rand) (*Sim, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		model:   model,
		marking: slices.Clone(model.initial),
		eng:     des.NewSim(),
		r:       r,
		timers:  make([]timer, len(model.activities)),
	}
	s.onComplete = s.complete
	return s, nil
}

// Marking returns the live marking (do not mutate).
func (s *Sim) Marking() Marking { return s.marking }

// Now returns the current virtual time.
func (s *Sim) Now() float64 { return s.eng.Now() }

// fire completes activity a: consume inputs, select a case, apply
// outputs.
func (s *Sim) fire(a *Activity) {
	for _, arc := range a.inputs {
		s.marking[arc.Place] -= arc.Tokens
		if s.marking[arc.Place] < 0 {
			s.err = fmt.Errorf("%w: place %q went negative firing %q",
				ErrInvalidModel, s.model.placeNames[arc.Place], a.name)
			s.eng.Stop()
			return
		}
	}
	c := s.selectCase(a)
	for _, arc := range c.Outputs {
		s.marking[arc.Place] += arc.Tokens
	}
	for _, og := range c.Gates {
		if og.Fn != nil {
			og.Fn(s.marking)
		}
	}
}

// selectCase picks a case according to fixed probabilities or dynamic
// weights.
func (s *Sim) selectCase(a *Activity) *Case {
	if len(a.cases) == 1 {
		return &a.cases[0]
	}
	dynamic := false
	for i := range a.cases {
		if a.cases[i].WeightFn != nil {
			dynamic = true
			break
		}
	}
	if dynamic {
		total := 0.0
		weights := make([]float64, len(a.cases))
		for i := range a.cases {
			w := a.cases[i].Prob
			if a.cases[i].WeightFn != nil {
				w = a.cases[i].WeightFn(s.marking)
			}
			if w < 0 {
				w = 0
			}
			weights[i] = w
			total += w
		}
		if total <= 0 {
			return &a.cases[0]
		}
		u := s.r.Float64() * total
		for i, w := range weights {
			u -= w
			if u < 0 {
				return &a.cases[i]
			}
		}
		return &a.cases[len(a.cases)-1]
	}
	u := s.r.Float64()
	for i := range a.cases {
		u -= a.cases[i].Prob
		if u < 0 {
			return &a.cases[i]
		}
	}
	return &a.cases[len(a.cases)-1]
}

// resync brings timers in line with the new marking: disarms timers of
// disabled activities, schedules timers for newly enabled ones.
func (s *Sim) resync() {
	for _, a := range s.model.activities {
		t := &s.timers[a.id]
		en := a.enabled(s.marking)
		switch {
		case en && !t.armed:
			s.schedule(a)
		case !en && t.armed:
			t.disarm()
		case en && t.armed && a.resample:
			t.disarm()
			s.schedule(a)
		}
	}
}

// schedule samples a completion time for a and enqueues its completion,
// stamped with the activity and its current generation.
func (s *Sim) schedule(a *Activity) {
	delay := a.dist.Sample(s.r)
	if delay < 0 || math.IsNaN(delay) {
		s.err = fmt.Errorf("%w: activity %q sampled invalid delay %v", ErrInvalidModel, a.name, delay)
		s.eng.Stop()
		return
	}
	t := &s.timers[a.id]
	t.armed = true
	s.eng.SchedulePayload(delay, s.onComplete, des.Payload{Node: int32(a.id), P: float64(t.gen)})
}

// complete fires the activity a completion event was scheduled for,
// unless the event is stale: its activity was disarmed (disabled or
// resampled) after it was scheduled, which moved the generation on. A
// live event exists only while its activity was continuously enabled,
// so it fires unconditionally. A stale one draws no random number and
// leaves the marking unchanged.
func (s *Sim) complete(p des.Payload) {
	t := &s.timers[p.Node]
	if float64(t.gen) != p.P {
		return
	}
	t.disarm()
	s.fire(s.model.activities[p.Node])
	if s.err == nil {
		s.resync()
	}
}

// RunUntil executes until pred(marking) holds or the horizon passes. It
// returns whether the predicate was satisfied and the time at which it
// first held.
func (s *Sim) RunUntil(horizon float64, pred func(m Marking) bool) (bool, float64, error) {
	s.resync()
	if s.err != nil {
		return false, 0, s.err
	}
	ok, err := s.eng.RunUntil(horizon, func() bool { return pred(s.marking) })
	if err != nil && !errors.Is(err, des.ErrStopped) {
		return false, 0, err
	}
	if s.err != nil {
		return false, 0, s.err
	}
	return ok, s.eng.Now(), nil
}

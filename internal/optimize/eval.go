package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"diversify/internal/des"
	"diversify/internal/digest"
	"diversify/internal/diversity"
	"diversify/internal/evalstore"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/rotation"
	"diversify/internal/telemetry"
	"diversify/internal/trace"
)

// archived is one feasible evaluation (Score archives nothing else); the
// candidate snapshot feeds the Pareto front and best-candidate extraction.
type archived struct {
	fingerprint uint64
	cand        Candidate
	score       Score
}

// infeasibleValue is the objective value of quarantined and refused
// candidates: finite (so JSON encoding and value comparisons stay
// well-defined) but worse than any measurable score, so no strategy ever
// prefers one.
const infeasibleValue = math.MaxFloat64

// refusal is why Score declined a candidate (zero: it did not).
type refusal uint8

const (
	overBudget  refusal = iota + 1 // its cost exceeds the budget
	overZoneCap                    // it breaks the MaxPerZone cap
)

// Evaluator turns candidates into Scores by Monte-Carlo campaign
// simulation. It owns
//
//   - a des.Pool whose workers each hold ONE reusable malware.Campaign
//     (Reset between replications — construction is paid once per worker,
//     not once per replication);
//   - a fixed vector of per-replication streams, so every candidate is
//     measured under common random numbers (identical attack luck), which
//     makes candidate comparisons variance-reduced and the score a pure
//     function of the candidate;
//   - per-worker rotation engines for every schedule in
//     Problem.Rotations, built lazily the first time a schedule is
//     simulated (engine state is per-campaign; sharing one across
//     workers would race) — campaigns swap between rotated and static
//     candidates via Campaign.SetRotation;
//   - a memoization cache keyed by candidate fingerprint (assignment ×
//     schedule), so a candidate revisited by annealing or genetic
//     recombination is never re-simulated.
//
// Score calls must come from one goroutine (the strategy loop); the
// internal fan-out across workers is the only concurrency.
type Evaluator struct {
	p       *Problem
	streams []rng.Rand
	pool    *des.Pool

	// ctx cancels evaluations: workers stop claiming replication batches
	// once it is done (in-flight replications drain cleanly) and Score
	// returns the context error without caching a partial measurement.
	ctx context.Context

	// camps[w] is worker w's reusable campaign, nil until its first
	// replication and again after a panic.
	camps []*malware.Campaign

	// rotFPs[i] digests p.Rotations[i]; rotors[i][w] is worker w's engine
	// for schedule i (nil column until first use).
	rotFPs []uint64
	rotors [][]*rotation.Engine

	cache   map[uint64]Score
	archive []archived
	hits    int
	misses  int
	// quarantined counts candidates scored infeasible after repeated
	// evaluation panics; retries counts panicked replication attempts
	// that were replayed; repHook is the fault-injection seam the
	// robustness tests use (called once per replication attempt, before
	// the campaign runs).
	quarantined int
	retries     int
	repHook     func(c Candidate, rep int)

	// sink, when non-nil, receives the telemetry event stream; started
	// anchors the monotonic Elapsed stamps on trace steps and events.
	// Emissions are guarded by one nil-check so a run without telemetry
	// pays nothing on the hot path.
	sink    telemetry.Sink
	started time.Time

	// store, when non-nil, is the durable evaluation store: cache misses
	// consult it before simulating (topoFP/specFP complete the key), and
	// fresh measurements and quarantine tombstones are appended to it. A
	// store write failure detaches the store instead of killing the
	// search — durability is auxiliary, the in-memory run is
	// authoritative.
	store          *evalstore.Store
	topoFP, specFP uint64
	storeHits      int
	storePuts      int

	// meas holds one measurement vector per replication, averaged in
	// replication order so float accumulation is independent of the
	// worker count.
	meas []evalstore.Measurements

	// zoneBuf is the reusable scratch for MaxPerZone violation scans.
	zoneBuf []diversity.Entry
}

// newEvaluator prepares the worker pool for a normalized, validated
// problem.
func newEvaluator(p *Problem) (*Evaluator, error) {
	// Replication i replays the stream seeded with the root's i-th draw
	// for every candidate.
	root := rng.New(p.Seed)
	streams := make([]rng.Rand, p.Reps)
	for i := range streams {
		streams[i].Seed(root.Uint64())
	}
	pool := des.NewPool(streams, p.Workers)
	ev := &Evaluator{
		p:       p,
		ctx:     context.Background(), //diversify:allow-context placeholder until RunContext installs the caller's context; bare Score calls never block on it
		started: wallClock(),
		repHook: p.repHook,
		streams: streams,
		pool:    pool,
		camps:   make([]*malware.Campaign, pool.Workers()),
		rotFPs:  make([]uint64, len(p.Rotations)),
		rotors:  make([][]*rotation.Engine, len(p.Rotations)),
		cache:   map[uint64]Score{},
		meas:    make([]evalstore.Measurements, p.Reps),
	}
	for i, spec := range p.Rotations {
		ev.rotFPs[i] = spec.Fingerprint()
	}
	// Fail fast on an unusable campaign template.
	probe := malware.Config{
		Topo: p.Topo, Catalog: p.Catalog, Profile: p.Profile,
		Rand: rng.New(p.Seed), FirewallVariant: p.FirewallVariant,
	}
	if _, err := malware.NewCampaign(probe); err != nil {
		return nil, err
	}
	// And on unusable rotation schedules (missing variants, empty
	// candidate sets) before any strategy pairs a placement with one.
	for i := range p.Rotations {
		if _, err := rotation.NewEngine(p.Rotations[i], p.Topo, p.Catalog, p.Profile); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// Cost prices a candidate without simulating it — the placement cost
// plus the schedule's planned rotation cost. Score applies it (with
// ZoneOK) to every new candidate; repair uses it to shed cost.
func (e *Evaluator) Cost(c Candidate) float64 {
	cost := e.p.Cost.Cost(e.p.Topo, c.A)
	if c.Rot >= 0 {
		cost += e.p.Rotations[c.Rot].PlannedCost(e.p.Horizon)
	}
	return cost
}

// ZoneOK reports the MaxPerZone feasibility of a placement (true when
// the constraint is disabled). Like Cost it needs no simulation.
func (e *Evaluator) ZoneOK(a *diversity.Assignment) bool {
	e.zoneBuf = zoneViolations(e.p, a, e.zoneBuf)
	return len(e.zoneBuf) == 0
}

// engines returns the per-worker rotation engines for schedule rot,
// building the column on first use.
func (e *Evaluator) engines(rot int) ([]*rotation.Engine, error) {
	if e.rotors[rot] == nil {
		col := make([]*rotation.Engine, e.pool.Workers())
		for w := range col {
			eng, err := rotation.NewEngine(e.p.Rotations[rot], e.p.Topo, e.p.Catalog, e.p.Profile)
			if err != nil {
				return nil, err
			}
			col[w] = eng
		}
		e.rotors[rot] = col
	}
	return e.rotors[rot], nil
}

// Score evaluates a candidate, consulting the fingerprint cache first.
// It is the one feasibility gate: a new candidate over budget or over
// MaxPerZone comes back refused (its cost, infeasibleValue) and is not
// counted, cached, archived, emitted or simulated. The returned Score is
// identical for identical candidates regardless of evaluation order or
// worker count. The candidate is snapshotted, so the caller may keep
// mutating it.
//
//diversify:hotpath the memoized hit path runs once per search step; new escapes here tax every strategy
func (e *Evaluator) Score(c Candidate) (Score, error) {
	if err := e.ctx.Err(); err != nil {
		return Score{}, err
	}
	fp := c.fingerprint(e.rotFPs)
	if s, ok := e.cache[fp]; ok {
		e.hits++
		return s, nil
	}
	cost := e.Cost(c)
	if !e.p.withinBudget(cost) {
		return Score{Cost: cost, Value: infeasibleValue, refused: overBudget}, nil
	}
	if !e.ZoneOK(c.A) {
		return Score{Cost: cost, Value: infeasibleValue, refused: overZoneCap}, nil
	}
	e.misses++
	var s Score
	stored := false
	if e.store != nil {
		key := e.storeKey(fp)
		if m, ok := e.store.Get(key); ok {
			// Warm start: the measurements are a pure function of the key,
			// so re-using them is bit-identical to re-simulating. Value and
			// Cost are recomputed below under THIS run's objective and cost
			// model — which is what lets a budget- or objective-tweaked
			// re-optimization skip the replications.
			s = e.scoreFromMeasurements(m)
			stored = true
		} else if e.store.Quarantined(key) {
			// An earlier run quarantined this candidate: serve the verdict
			// instead of replaying its panics.
			e.quarantined++
			s = Score{Value: infeasibleValue, Quarantined: true}
			stored = true
		}
		if stored {
			e.storeHits++
			if e.sink != nil {
				e.sink.Emit(telemetry.EvaluationBatch{
					Fingerprint: fp, FromStore: true,
					Evaluations: e.misses, CacheHits: e.hits, StoreHits: e.storeHits,
				})
			}
		}
	}
	if !stored {
		// The batch timer exists only when a sink does: the disabled path
		// must not even read the clock.
		var batchStart time.Time
		if e.sink != nil {
			batchStart = wallClock()
		}
		m, err := e.simulate(c, nil)
		var pe *des.PanicError
		if errors.As(err, &pe) {
			// The candidate's evaluation panicked repeatedly: quarantine it —
			// cached as infeasible so the search keeps moving and never
			// revisits it — instead of killing the whole run.
			e.quarantined++
			s = Score{Value: infeasibleValue, Quarantined: true}
			e.persist(fp, nil)
		} else if err != nil {
			return Score{}, err
		} else {
			s = e.scoreFromMeasurements(m)
			e.persist(fp, &m)
			if e.sink != nil {
				e.sink.Emit(telemetry.EvaluationBatch{
					Fingerprint: fp, Replications: e.p.Reps,
					Duration:    sinceWall(batchStart),
					Evaluations: e.misses, CacheHits: e.hits, StoreHits: e.storeHits,
				})
			}
		}
	}
	s.Cost = cost
	e.cache[fp] = s
	e.archive = append(e.archive, archived{fingerprint: fp, cand: c.Clone(), score: s})
	return s, nil
}

// persist appends a fresh measurement, or a quarantine tombstone when m
// is nil, to the durable store when one is attached.
func (e *Evaluator) persist(fp uint64, m *evalstore.Measurements) {
	if e.store == nil {
		return
	}
	var err error
	if m == nil {
		err = e.store.Quarantine(e.storeKey(fp))
	} else {
		err = e.store.Put(e.storeKey(fp), *m)
	}
	if err != nil {
		e.store = nil // a broken store must not kill a healthy search
		return
	}
	e.storePuts++
}

// value maps measurements to the minimized scalar.
func (e *Evaluator) value(s Score) float64 {
	switch e.p.Objective {
	case MinimizeRatio:
		return s.FinalRatio
	case MaximizeTTSF:
		return -s.MeanTTSF
	case MinimizeFoothold:
		return AxisFoothold.of(s)
	default: // MinimizeSuccess
		return AxisSuccess.of(s)
	}
}

// simulate runs the replications for one candidate on the evaluator's
// pool and returns the mean measurement vector. Campaigns persist
// ACROSS candidates and every candidate replays the same per-replication
// streams (common random numbers). A non-nil capt records causal traces
// of its sampled replications. A replication that panics on every retry
// fails the candidate with a *des.PanicError.
func (e *Evaluator) simulate(c Candidate, capt *trace.Capture) (evalstore.Measurements, error) {
	assignFn := c.A.Func()
	var engs []*rotation.Engine
	if c.Rot >= 0 {
		var err error
		if engs, err = e.engines(c.Rot); err != nil {
			return evalstore.Measurements{}, err
		}
	}
	retries, err := e.pool.Run(e.ctx, func(w, i int, r *rng.Rand) error {
		if e.repHook != nil {
			e.repHook(c, i)
		}
		camp := e.camps[w]
		if camp == nil {
			var err error
			camp, err = malware.NewCampaign(malware.Config{
				Topo: e.p.Topo, Catalog: e.p.Catalog, Profile: e.p.Profile,
				Rand: r, Assign: assignFn, FirewallVariant: e.p.FirewallVariant,
			})
			if err != nil {
				return err
			}
			e.camps[w] = camp
		} else {
			camp.Reset(assignFn, r)
		}
		if engs != nil {
			camp.SetRotation(engs[w])
		} else {
			camp.SetRotation(nil)
		}
		camp.SetTracer(capt.Tracer(w, i))
		out, err := camp.Run(e.p.Horizon)
		if err != nil {
			return err
		}
		capt.Keep(w, i)
		e.meas[i] = measure(out)
		return nil
	}, func(w int) { e.camps[w] = nil }) // a campaign is suspect mid-panic
	e.retries += retries
	var pe *des.PanicError
	if errors.As(err, &pe) && e.sink != nil {
		e.sink.Emit(telemetry.WorkerQuarantined{
			Worker: pe.Worker, Replication: pe.Rep, Attempts: pe.Attempts, Cause: fmt.Sprint(pe.Cause),
		})
	}
	if err != nil {
		return evalstore.Measurements{}, err
	}
	var mean evalstore.Measurements
	for i := range e.meas {
		for k, v := range e.meas[i] {
			mean[k] += v
		}
	}
	for k := range mean {
		mean[k] /= float64(e.p.Reps)
	}
	return mean, nil
}

// measure flattens one replication's outcome into the store's
// measurement order (see scoreFromMeasurements); time-to-security-failure
// is censored at the horizon for undetected replications.
func measure(out indicators.Outcome) evalstore.Measurements {
	ttsf := out.Horizon
	if out.Detected {
		ttsf = out.TTSF
	}
	return evalstore.Measurements{
		b2f(out.Success), ttsf, indicators.RatioAt(out.Compromised, out.Horizon),
		b2f(out.Detected), out.DwellTime(), float64(out.Detections), out.FootholdTime,
		float64(out.Rotations), float64(out.Reinfections), out.RotationCost,
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// explain re-simulates one candidate with trace capture on the sampled
// replications and aggregates the captures into an explanation report.
// The replay reuses the evaluator's pool and CRN streams, so it
// reproduces exactly the attack sequences the search scored — and
// because capture consumes no RNG draw, running it perturbs nothing:
// scores, goldens and the search trajectory are byte-identical with
// explanations on or off.
func (e *Evaluator) explain(label string, c Candidate, sample float64) (trace.Explanation, error) {
	capt := trace.NewCapture(e.streams, sample, e.pool.Workers(), 0)
	if _, err := e.simulate(c, capt); err != nil {
		return trace.Explanation{}, err
	}
	nodes := e.p.Topo.Nodes()
	return trace.Explain(capt.Traces(), trace.ExplainOpts{
		Candidate:    label,
		Rotation:     e.p.rotName(c.Rot),
		Replications: e.p.Reps,
		NodeName: func(id int32) string {
			if id >= 0 && int(id) < len(nodes) {
				return nodes[id].Name
			}
			return fmt.Sprintf("node%d", id)
		},
	}), nil
}

// bestFeasible returns the best archived candidate that is not
// quarantined (the archive holds only feasible ones); equal values
// prefer the cheaper candidate, remaining ties keep the earliest
// evaluated (deterministic). The baseline is always in the archive, so
// the result is never worse than it.
func (e *Evaluator) bestFeasible() (Score, Candidate, uint64) {
	var best archived
	found := false
	for _, c := range e.archive {
		if c.score.Quarantined {
			continue
		}
		better := !found || c.score.Value < best.score.Value ||
			(c.score.Value == best.score.Value && c.score.Cost < best.score.Cost)
		if better {
			best = c
			found = true
		}
	}
	if !found {
		return Score{}, Candidate{Rot: -1}, 0
	}
	return best.score, best.cand, best.fingerprint
}

// noteRound stamps one completed search round: the monotonic Elapsed
// timestamp goes on the trace step unconditionally (wall time is cheap
// and a store-resumed run's trace should say where the time went); the
// RoundCompleted event fires only when a sink is attached. Strategies
// call this right after appending the step, so `step` points into the
// live trace.
func (e *Evaluator) noteRound(strategy string, step *TraceStep, frontSize int) {
	step.Elapsed = sinceWall(e.started)
	if e.sink == nil {
		return
	}
	e.sink.Emit(telemetry.RoundCompleted{
		Strategy:    strategy,
		Round:       step.Iter,
		Action:      step.Action,
		Value:       step.Value,
		Cost:        step.Cost,
		Incumbent:   step.Best,
		Accepted:    step.Accepted,
		FrontSize:   frontSize,
		Evaluations: e.misses,
		CacheHits:   e.hits,
		Elapsed:     step.Elapsed,
	})
}

// newSearchRand derives an independent deterministic stream for one
// search role, so strategy moves, the random baseline and the evaluation
// streams never share draws.
func newSearchRand(seed uint64, role string) *rng.Rand {
	h := digest.New()
	h.Raw(role)
	return rng.New(seed ^ h.Sum())
}

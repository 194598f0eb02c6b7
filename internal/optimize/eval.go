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
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/rotation"
	"diversify/internal/telemetry"
	"diversify/internal/topology"
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
//   - a malware.Runner whose workers each hold ONE reusable campaign
//     (Reset between replications — construction is paid once per worker,
//     not once per replication);
//   - a fixed vector of per-replication streams, so every candidate is
//     measured under common random numbers (identical attack luck), which
//     makes candidate comparisons variance-reduced and the score a pure
//     function of the candidate;
//   - one reference candidate, which greedy declares at every round
//     start: a static candidate replays the reference's replication r
//     (copies its measurement vector) whenever the reference's run of r
//     read no (node, class) pair where the two placements differ, since
//     under the same stream the two runs are then identical, and only
//     the remaining replications are simulated (see replay);
//   - per-worker rotation engines for every schedule in
//     Problem.Rotations, built lazily the first time a schedule is
//     simulated (engine state is per-campaign; sharing one across
//     workers would race) — the runner's campaigns swap between rotated
//     and static candidates;
//   - a memoization cache keyed by candidate fingerprint (assignment ×
//     schedule), so a candidate revisited by annealing or NSGA-II
//     recombination is never re-simulated.
//
// Score calls must come from one goroutine (the strategy loop); the
// internal fan-out across workers is the only concurrency.
type Evaluator struct {
	p       *Problem
	streams []rng.Rand
	runner  *malware.Runner

	// ctx cancels evaluations: workers stop claiming replication batches
	// once it is done (in-flight replications drain cleanly) and Score
	// returns the context error without caching a partial measurement.
	ctx context.Context

	// rotFPs[i] digests p.Rotations[i]; rotors[i][w] is worker w's engine
	// for schedule i (nil column until first use).
	rotFPs []uint64
	rotors [][]malware.Rotator

	cache   map[uint64]Score
	archive []archived
	// hits and misses are the raw cumulative Score counts RoundCompleted
	// reports; tot is the run's ledger, whose effort counts accrue here
	// and whose logical counts RunWith fills in from the cache.
	hits   int
	misses int
	tot    telemetry.Totals
	// repHook is the fault-injection seam the robustness tests use
	// (called once per replication attempt, after the campaign runs and
	// before its outcome is kept).
	repHook func(c Candidate, rep int)

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

	// meas holds one measurement vector per replication, averaged in
	// replication order so float accumulation is independent of the
	// worker count.
	meas []evalstore.Measurements

	// ref is the reference static candidates replay from. installed is
	// the placement the runner's campaigns last resolved variants under
	// (valid once installedOK), so a Run drops only the resolved indices
	// of the slots that changed since; slots is the reusable buffer of
	// diffSlots.
	ref         reference
	installed   diversity.Assignment
	installedOK bool
	slots       []malware.Slot

	// zoneBuf is the reusable scratch for MaxPerZone violation scans.
	zoneBuf []diversity.Entry
}

// reference is the candidate whose replications static candidates
// replay (see Evaluator.replay). Its measurement vectors and read sets
// are recorded on the first candidate that needs simulating after it is
// declared, so a candidate served from the cache or the store never
// pays for a recording, and the buffers are allocated by the first
// recording.
type reference struct {
	// a is the reference placement, valid while declared. A reference
	// whose recording panicked is dropped: candidates simulate in full
	// until the next declaration.
	a                           diversity.Assignment
	declared, recorded, dropped bool
	// meas[i] and reads[i] are replication i's measurement vector and
	// the (node, class) pairs it read; todo is the reusable list of the
	// replications a candidate must simulate.
	meas  []evalstore.Measurements
	reads []malware.ReadSet
	todo  []int
}

// newEvaluator prepares the campaign runner for a normalized, validated
// problem.
func newEvaluator(p *Problem) (*Evaluator, error) {
	// Replication i replays the stream seeded with the root's i-th draw
	// for every candidate.
	root := rng.New(p.Seed)
	streams := make([]rng.Rand, p.Reps)
	for i := range streams {
		streams[i].Seed(root.Uint64())
	}
	// Fail fast on an unusable campaign template.
	runner, err := malware.NewRunner(malware.Config{
		Topo: p.Topo, Catalog: p.Catalog, Profile: p.Profile,
	}, p.Horizon, streams, p.Workers)
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{
		p:       p,
		ctx:     context.Background(), //diversify:allow-context placeholder until RunContext installs the caller's context; bare Score calls never block on it
		started: wallClock(),
		repHook: p.repHook,
		streams: streams,
		runner:  runner,
		rotFPs:  make([]uint64, len(p.Rotations)),
		rotors:  make([][]malware.Rotator, len(p.Rotations)),
		cache:   map[uint64]Score{},
		meas:    make([]evalstore.Measurements, p.Reps),
	}
	for i, spec := range p.Rotations {
		ev.rotFPs[i] = spec.Fingerprint()
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
func (e *Evaluator) engines(rot int) ([]malware.Rotator, error) {
	if e.rotors[rot] == nil {
		col := make([]malware.Rotator, e.runner.Workers())
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
			e.tot.Quarantined++
			s = Score{Value: infeasibleValue, Quarantined: true}
			stored = true
		}
		if stored {
			e.tot.StoreHits++
			if e.sink != nil {
				e.sink.Emit(telemetry.EvaluationBatch{Fingerprint: fp, FromStore: true})
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
		simulated, replayed := e.tot.Simulated, e.tot.Replayed
		m, err := e.simulate(c, nil)
		var pe *des.PanicError
		if errors.As(err, &pe) {
			// The candidate's evaluation panicked repeatedly: quarantine it —
			// cached as infeasible so the search keeps moving and never
			// revisits it — instead of killing the whole run.
			e.tot.Quarantined++
			s = Score{Value: infeasibleValue, Quarantined: true}
			e.persist(fp, nil)
		} else if err != nil {
			return Score{}, err
		} else {
			s = e.scoreFromMeasurements(m)
			e.persist(fp, &m)
			if e.sink != nil {
				e.sink.Emit(telemetry.EvaluationBatch{
					Fingerprint: fp, Replications: e.tot.Simulated - simulated, Replayed: e.tot.Replayed - replayed,
					Duration: sinceWall(batchStart),
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
	e.tot.StorePuts++
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

// simulate measures one candidate on the evaluator's runner and returns
// the mean measurement vector. Campaigns persist ACROSS candidates and
// every candidate replays the same per-replication streams (common
// random numbers). A static, untraced candidate copies every
// replication it cannot differ in from the reference and simulates only
// the rest; the mean sums e.meas in replication order either way, so
// the score is byte-identical to a full simulation's. A non-nil capt
// records causal traces of its sampled replications. A replication that
// panics on every retry fails the candidate with a *des.PanicError.
func (e *Evaluator) simulate(c Candidate, capt *trace.Capture) (evalstore.Measurements, error) {
	job := malware.Job{Capt: capt}
	var err error
	if c.Rot >= 0 {
		job.Rots, err = e.engines(c.Rot)
	} else if capt == nil {
		job.Reps, err = e.replay(c.A)
	}
	if err != nil {
		return evalstore.Measurements{}, err
	}
	// A nil job.Reps simulates every replication, an empty one none.
	if job.Reps == nil || len(job.Reps) > 0 {
		err = e.run(c.A, job, func(i int, out indicators.Outcome) {
			if e.repHook != nil {
				e.repHook(c, i)
			}
			e.meas[i] = measure(out)
		})
		var pe *des.PanicError
		if errors.As(err, &pe) && e.sink != nil {
			e.sink.Emit(telemetry.WorkerQuarantined{
				Worker: pe.Worker, Replication: pe.Rep, Attempts: pe.Attempts, Cause: fmt.Sprint(pe.Cause),
			})
		}
		if err != nil {
			return evalstore.Measurements{}, err
		}
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

// run executes job under placement a on the evaluator's runner. It
// names the slots that changed since the previous Run's placement, so
// the workers' campaigns keep every other resolved variant, and it
// counts the replications and retries.
func (e *Evaluator) run(a *diversity.Assignment, job malware.Job, keep func(i int, out indicators.Outcome)) error {
	job.Assign = a.Func()
	if e.installedOK {
		job.Changed = e.diffSlots(&e.installed, a)
	}
	e.installed.CopyFrom(a)
	e.installedOK = true
	if job.Reps == nil {
		e.tot.Simulated += e.p.Reps
	} else {
		e.tot.Simulated += len(job.Reps)
	}
	retries, err := e.runner.Run(e.ctx, job, keep)
	e.tot.Retries += retries
	return err
}

// diffSlots lists the slots where placements a and b differ
// (diversity.Diff) in e.slots, which the next call reuses. The result is
// never nil, which Job.Changed would read as "any slot".
func (e *Evaluator) diffSlots(a, b *diversity.Assignment) []malware.Slot {
	slots := e.slots[:0]
	diversity.Diff(a, b, func(n topology.NodeID, c exploits.Class) {
		slots = append(slots, malware.Slot{Node: n, Class: c})
	})
	if slots == nil {
		slots = []malware.Slot{}
	}
	e.slots = slots
	return slots
}

// setReference declares c the reference that later static candidates
// replay from; a rotating c, or a nil placement, declares none. The
// placement is snapshotted, so the caller may keep mutating c. Greedy
// calls it at every round start with its incumbent.
func (e *Evaluator) setReference(c Candidate) {
	ref := &e.ref
	ref.declared = c.A != nil && c.Rot < 0
	ref.recorded, ref.dropped = false, false
	if ref.declared {
		ref.a.CopyFrom(c.A)
	}
}

// replay serves placement a's replications from the reference wherever
// a cannot differ from it. Replication i of a and of the reference start
// from the same stream, and a campaign reads the placement only through
// its resolved variant table, so the two runs stay identical unless one
// of them reads a slot where the placements differ, and the first such
// read would be a read of the reference's run too. So when the
// reference's run of i read none of those slots, its measurement vector
// is a's: replay copies it into e.meas. It returns the replications that
// must still be simulated (empty when none), or nil to simulate all when
// no reference is declared or its recording panicked. The reference is
// recorded here, on its first use.
func (e *Evaluator) replay(a *diversity.Assignment) ([]int, error) {
	ref := &e.ref
	if !ref.declared || ref.dropped {
		return nil, nil
	}
	if !ref.recorded {
		err := e.record()
		var pe *des.PanicError
		if errors.As(err, &pe) {
			ref.dropped = true
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
	}
	diff := e.diffSlots(&ref.a, a)
	todo := ref.todo[:0]
	for i, reads := range ref.reads {
		if reads.ReadAny(diff) {
			todo = append(todo, i)
		} else {
			e.meas[i] = ref.meas[i]
			e.tot.Replayed++
		}
	}
	ref.todo = todo
	return todo, nil
}

// record simulates the declared reference once with read recording.
// Its replications are ordinary simulated replications: the fault hook
// sees them (as the reference candidate) and they count as simulated.
func (e *Evaluator) record() error {
	ref := &e.ref
	if ref.meas == nil {
		ref.meas = make([]evalstore.Measurements, e.p.Reps)
		ref.reads = make([]malware.ReadSet, e.p.Reps)
		for i := range ref.reads {
			ref.reads[i] = malware.NewReadSet(e.p.Topo.Len())
		}
		ref.todo = make([]int, 0, e.p.Reps)
	}
	c := Candidate{A: &ref.a, Rot: -1}
	err := e.run(c.A, malware.Job{Reads: ref.reads}, func(i int, out indicators.Outcome) {
		if e.repHook != nil {
			e.repHook(c, i)
		}
		ref.meas[i] = measure(out)
	})
	ref.recorded = err == nil
	return err
}

// measure flattens one replication's outcome into the store's
// measurement order (see scoreFromMeasurements); time-to-security-failure
// is censored at the horizon for undetected replications.
func measure(out indicators.Outcome) evalstore.Measurements {
	return evalstore.Measurements{
		out.SuccessValue(), out.CensoredTTSF(), out.FinalRatio(),
		out.DetectedValue(), out.DwellTime(), float64(out.Detections), out.FootholdTime,
		float64(out.Rotations), float64(out.Reinfections), out.RotationCost,
	}
}

// explain re-simulates one candidate with trace capture on the sampled
// replications and aggregates the captures into an explanation report.
// The replay reuses the evaluator's runner and CRN streams, so it
// reproduces exactly the attack sequences the search scored — and
// because capture consumes no RNG draw, running it perturbs nothing:
// scores, goldens and the search trajectory are byte-identical with
// explanations on or off.
func (e *Evaluator) explain(label string, c Candidate, sample float64) (trace.Explanation, error) {
	capt := trace.NewCapture(e.streams, sample, e.runner.Workers(), 0)
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
// live trace; a seeding pass's step never reaches the run's trace.
func (e *Evaluator) noteRound(strategy string, seeding bool, step *TraceStep, frontSize int) {
	step.Elapsed = sinceWall(e.started)
	if e.sink == nil {
		return
	}
	e.sink.Emit(telemetry.RoundCompleted{
		Strategy:    strategy,
		Seeding:     seeding,
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

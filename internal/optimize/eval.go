package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diversify/internal/diversity"
	"diversify/internal/evalstore"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/rotation"
	"diversify/internal/telemetry"
	"diversify/internal/trace"
)

// archived is one archived evaluation (the candidate snapshot feeds the
// Pareto front and best-candidate extraction).
type archived struct {
	fingerprint uint64
	cand        Candidate
	score       Score
	// zoneOK caches the MaxPerZone feasibility verdict, so extraction and
	// front-building never surface a constraint-violating candidate the
	// search happened to evaluate.
	zoneOK bool
}

// Panic-isolation bounds: a replication whose campaign panics is retried
// with the same stream seed (CRN holds) after an escalating backoff; a
// replication that panics maxRepAttempts times in a row quarantines the
// whole candidate instead of killing the process or deadlocking the
// worker pool.
const (
	maxRepAttempts  = 3
	repRetryBackoff = time.Millisecond
)

// quarantineValue is the objective value assigned to quarantined
// candidates: finite (so JSON encoding and value comparisons stay
// well-defined) but worse than any measurable score, so no strategy ever
// prefers a quarantined candidate.
const quarantineValue = math.MaxFloat64

// repPanic is one replication's unrecoverable panic: the candidate that
// triggered it is quarantined.
type repPanic struct {
	rep   int
	cause any
}

func (p *repPanic) Error() string {
	return fmt.Sprintf("optimize: evaluation of replication %d panicked %d times: %v", p.rep, maxRepAttempts, p.cause)
}

// Evaluator turns candidates into Scores by Monte-Carlo campaign
// simulation. It owns
//
//   - a pool of workers, each holding ONE reusable malware.Campaign
//     (Reset between replications — construction is paid once per worker,
//     not once per replication) and one RNG reseeded per replication;
//   - a fixed vector of per-replication stream seeds, so every candidate
//     is measured under common random numbers (identical attack luck),
//     which makes candidate comparisons variance-reduced and the score a
//     pure function of the candidate;
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
	p     *Problem
	seeds []uint64

	// ctx cancels evaluations: workers stop claiming replication batches
	// once it is done (in-flight replications drain cleanly) and Score
	// returns the context error without caching a partial measurement.
	ctx context.Context

	nWorkers int
	batch    int
	camps    []*malware.Campaign
	rands    []*rng.Rand

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
	// that were replayed (atomic — workers count from their own
	// goroutines); repHook is the fault-injection seam the robustness
	// tests use (called once per replication attempt, before the
	// campaign runs).
	quarantined int
	retries     atomic.Int64
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

	// Per-replication result buffers, aggregated sequentially in
	// replication order so float accumulation is independent of the
	// worker count.
	succBuf  []bool
	detBuf   []bool
	ttsfBuf  []float64
	ratioBuf []float64
	dwellBuf []float64
	dcntBuf  []int
	fhBuf    []float64
	rotBuf   []int
	reinfBuf []int
	rcostBuf []float64

	// zoneBuf is the reusable scratch for MaxPerZone violation scans.
	zoneBuf []diversity.Entry

	// Trace-capture state, allocated lazily by explain (the search itself
	// always runs untraced — explanations replay only the candidates worth
	// explaining under the same CRN streams). tracing gates the runRep
	// hook; traceSampled[i] fixes WHICH replications capture, up front,
	// from the same non-advancing stream digests malware.EvaluateTraced
	// hashes, so the sampled set is a pure function of the seed.
	tracing      bool
	traceSampled []bool
	tracers      []*trace.Tracer
	traceBuf     []trace.Trace
}

// newEvaluator prepares the worker pool for a normalized, validated
// problem.
func newEvaluator(p *Problem) (*Evaluator, error) {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > p.Reps {
		w = p.Reps
	}
	root := rng.New(p.Seed)
	seeds := make([]uint64, p.Reps)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	// Replication-level batching: a few dispatches per worker amortize
	// the claim synchronization while keeping load balancing dynamic.
	batch := p.Reps / (w * 4)
	if batch < 1 {
		batch = 1
	}
	ev := &Evaluator{
		p:        p,
		ctx:      context.Background(), //diversify:allow-context placeholder until RunContext installs the caller's context; bare Score calls never block on it
		started:  wallClock(),
		repHook:  p.repHook,
		seeds:    seeds,
		nWorkers: w,
		batch:    batch,
		camps:    make([]*malware.Campaign, w),
		rands:    make([]*rng.Rand, w),
		rotFPs:   make([]uint64, len(p.Rotations)),
		rotors:   make([][]*rotation.Engine, len(p.Rotations)),
		cache:    map[uint64]Score{},
		succBuf:  make([]bool, p.Reps),
		detBuf:   make([]bool, p.Reps),
		ttsfBuf:  make([]float64, p.Reps),
		ratioBuf: make([]float64, p.Reps),
		dwellBuf: make([]float64, p.Reps),
		dcntBuf:  make([]int, p.Reps),
		fhBuf:    make([]float64, p.Reps),
		rotBuf:   make([]int, p.Reps),
		reinfBuf: make([]int, p.Reps),
		rcostBuf: make([]float64, p.Reps),
	}
	for i, spec := range p.Rotations {
		ev.rotFPs[i] = spec.Fingerprint()
	}
	for i := range ev.rands {
		ev.rands[i] = rng.New(0) // reseeded before every replication
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
// plus the schedule's planned rotation cost. Strategies use it to
// screen infeasible moves before spending replications.
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
		col := make([]*rotation.Engine, e.nWorkers)
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
// The returned Score is identical for identical candidates regardless of
// evaluation order or worker count. The candidate is snapshotted, so the
// caller may keep mutating it.
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
			s = scoreFromMeasurements(m)
			s.Value = e.value(s)
			stored = true
		} else if e.store.Quarantined(key) {
			// An earlier run quarantined this candidate: serve the verdict
			// instead of replaying its panics.
			e.quarantined++
			s = Score{Value: quarantineValue, Quarantined: true}
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
		var err error
		s, err = e.simulate(c)
		var rp *repPanic
		if errors.As(err, &rp) {
			// The candidate's evaluation panicked repeatedly: quarantine it —
			// cached as infeasible so the search keeps moving and never
			// revisits it — instead of killing the whole run.
			e.quarantined++
			s = Score{Value: quarantineValue, Quarantined: true}
			e.persist(fp, s)
		} else if err != nil {
			return Score{}, err
		} else {
			s.Value = e.value(s)
			e.persist(fp, s)
			if e.sink != nil {
				e.sink.Emit(telemetry.EvaluationBatch{
					Fingerprint: fp, Replications: e.p.Reps,
					Duration:    sinceWall(batchStart),
					Evaluations: e.misses, CacheHits: e.hits, StoreHits: e.storeHits,
				})
			}
		}
	}
	s.Cost = e.Cost(c)
	e.cache[fp] = s
	e.archive = append(e.archive, archived{
		fingerprint: fp,
		cand:        c.Clone(),
		score:       s,
		zoneOK:      e.ZoneOK(c.A),
	})
	return s, nil
}

// persist appends a fresh measurement, or a quarantine tombstone, to the
// durable store when one is attached.
func (e *Evaluator) persist(fp uint64, s Score) {
	if e.store == nil {
		return
	}
	var err error
	if s.Quarantined {
		err = e.store.Quarantine(e.storeKey(fp))
	} else {
		err = e.store.Put(e.storeKey(fp), measurementsOf(s))
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
		return s.MeanFoothold
	default: // MinimizeSuccess
		return s.PSuccess + 1e-3*s.FinalRatio
	}
}

// simulate runs the replications for one candidate across the worker
// pool and aggregates the indicators. It deliberately does not delegate
// to malware.Evaluate, whose per-call pool and Split-derived streams fit
// one-shot evaluations: here campaigns persist ACROSS candidates and
// every candidate replays the same reseeded per-replication streams
// (common random numbers). A behavioral change in either fan-out should
// be considered for the other.
func (e *Evaluator) simulate(c Candidate) (Score, error) {
	assignFn := c.A.Func()
	var engs []*rotation.Engine
	if c.Rot >= 0 {
		var err error
		if engs, err = e.engines(c.Rot); err != nil {
			return Score{}, err
		}
	}
	errs := make([]error, e.nWorkers)
	panics := make([]*repPanic, e.nWorkers)
	// poisoned flags a quarantine in progress: the other workers stop
	// claiming work and drain their in-flight replication instead of
	// finishing a candidate whose score will be discarded anyway.
	var poisoned atomic.Bool
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(e.nWorkers)
	for w := 0; w < e.nWorkers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				// Stop claiming work on cancellation (the in-flight
				// replication drained before we got here) or when a sibling
				// worker tripped a quarantine.
				if poisoned.Load() || e.ctx.Err() != nil {
					return
				}
				// Batched dynamic dispatch: replication i always runs stream
				// seeds[i] and writes only slot i, so which worker claims a
				// batch cannot matter.
				hi := int(cursor.Add(int64(e.batch)))
				lo := hi - e.batch
				if lo >= e.p.Reps {
					return
				}
				if hi > e.p.Reps {
					hi = e.p.Reps
				}
				for i := lo; i < hi; i++ {
					if err := e.runRepIsolated(w, i, c, assignFn, engs); err != nil {
						var rp *repPanic
						if errors.As(err, &rp) {
							panics[w] = rp
							poisoned.Store(true)
						} else {
							errs[w] = err
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Cancellation wins over partial measurements: the caller gets the
	// context error, nothing is cached, and the replication buffers are
	// simply abandoned.
	if err := e.ctx.Err(); err != nil {
		return Score{}, err
	}
	for _, err := range errs {
		if err != nil {
			return Score{}, err
		}
	}
	// Quarantine beats partial measurements: report the lowest-indexed
	// panicking replication (deterministic when several workers trip).
	var quar *repPanic
	for _, rp := range panics {
		if rp != nil && (quar == nil || rp.rep < quar.rep) {
			quar = rp
		}
	}
	if quar != nil {
		return Score{}, quar
	}
	// Aggregate in replication order: float accumulation is then
	// independent of the worker count.
	var s Score
	succ, det, dcnt, rot, reinf := 0, 0, 0, 0, 0
	for i := 0; i < e.p.Reps; i++ {
		if e.succBuf[i] {
			succ++
		}
		if e.detBuf[i] {
			det++
		}
		dcnt += e.dcntBuf[i]
		rot += e.rotBuf[i]
		reinf += e.reinfBuf[i]
		s.MeanTTSF += e.ttsfBuf[i]
		s.FinalRatio += e.ratioBuf[i]
		s.MeanDetLatency += e.dwellBuf[i]
		s.MeanFoothold += e.fhBuf[i]
		s.MeanRotationCost += e.rcostBuf[i]
	}
	n := float64(e.p.Reps)
	s.PSuccess = float64(succ) / n
	s.PDetect = float64(det) / n
	s.MeanTTSF /= n
	s.FinalRatio /= n
	s.MeanDetLatency /= n
	s.MeanDetections = float64(dcnt) / n
	s.MeanFoothold /= n
	s.MeanRotations = float64(rot) / n
	s.MeanReinfections = float64(reinf) / n
	s.MeanRotationCost /= n
	return s, nil
}

// runRepIsolated runs replication i on worker w with panic isolation:
// a panicking evaluation tears down the worker's campaign (its state is
// suspect), reseeds the replication stream and retries after a bounded
// backoff; maxRepAttempts consecutive panics return a *repPanic that
// quarantines the candidate. The no-panic path performs exactly the
// same RNG operations as an unisolated run, so common random numbers —
// and every seeded golden — are untouched.
func (e *Evaluator) runRepIsolated(w, i int, c Candidate, assignFn malware.Assignment, engs []*rotation.Engine) error {
	for attempt := 1; ; attempt++ {
		err, pan := e.runRep(w, i, c, assignFn, engs)
		if pan == nil {
			return err
		}
		// The campaign may hold arbitrarily corrupt state mid-panic; drop
		// it so the retry (and the next candidate) rebuilds from scratch.
		e.camps[w] = nil
		if attempt >= maxRepAttempts {
			// Emitted from the worker goroutine that tripped the quarantine
			// — sinks are concurrency-safe by contract.
			if e.sink != nil {
				e.sink.Emit(telemetry.WorkerQuarantined{
					Worker: w, Replication: i, Attempts: attempt, Cause: fmt.Sprint(pan),
				})
			}
			return &repPanic{rep: i, cause: pan}
		}
		e.retries.Add(1)
		time.Sleep(repRetryBackoff << (attempt - 1))
	}
}

// runRep executes one replication, converting panics into the second
// return value. The stream is reseeded here so retries replay the exact
// same attack luck.
func (e *Evaluator) runRep(w, i int, c Candidate, assignFn malware.Assignment, engs []*rotation.Engine) (err error, pan any) {
	defer func() {
		if r := recover(); r != nil {
			pan = r
		}
	}()
	r := e.rands[w]
	r.Seed(e.seeds[i])
	if e.repHook != nil {
		e.repHook(c, i)
	}
	camp := e.camps[w]
	if camp == nil {
		camp, err = malware.NewCampaign(malware.Config{
			Topo: e.p.Topo, Catalog: e.p.Catalog, Profile: e.p.Profile,
			Rand: r, Assign: assignFn, FirewallVariant: e.p.FirewallVariant,
		})
		if err != nil {
			return err, nil
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
	if e.tracing {
		if e.traceSampled[i] {
			tr := e.tracers[w]
			if tr == nil {
				tr = trace.NewTracer(explainTraceLimit)
				e.tracers[w] = tr
			}
			tr.Reset()
			camp.SetTracer(tr)
		} else {
			camp.SetTracer(nil)
		}
	}
	out, err := camp.Run(e.p.Horizon)
	if err != nil {
		return err, nil
	}
	if e.tracing && e.traceSampled[i] {
		tr := e.tracers[w]
		e.traceBuf[i] = trace.Trace{Rep: i, Dropped: tr.Dropped(), Records: tr.Snapshot()}
	}
	e.succBuf[i] = out.Success
	e.detBuf[i] = out.Detected
	if out.Detected {
		e.ttsfBuf[i] = out.TTSF
	} else {
		e.ttsfBuf[i] = out.Horizon
	}
	e.ratioBuf[i] = indicators.RatioAt(out.Compromised, out.Horizon)
	e.dwellBuf[i] = out.DwellTime()
	e.dcntBuf[i] = out.Detections
	e.fhBuf[i] = out.FootholdTime
	e.rotBuf[i] = out.Rotations
	e.reinfBuf[i] = out.Reinfections
	e.rcostBuf[i] = out.RotationCost
	return nil, nil
}

// explainTraceLimit caps one replication's captured records during an
// explanation replay (overflow is reported, never silent — see
// trace.Trace.Dropped).
const explainTraceLimit = 8192

// explain re-simulates one candidate with trace capture on the sampled
// replications and aggregates the captures into an explanation report.
// The replay reuses the evaluator's worker fan-out and CRN streams, so
// it reproduces exactly the attack sequences the search scored — and
// because capture consumes no RNG draw, running it perturbs nothing:
// scores, goldens and the search trajectory are byte-identical with
// explanations on or off.
func (e *Evaluator) explain(label string, c Candidate, sample float64) (trace.Explanation, error) {
	if e.traceSampled == nil {
		e.traceSampled = make([]bool, e.p.Reps)
		probe := rng.New(0)
		for i, s := range e.seeds {
			// The same decision malware.EvaluateTraced makes: hash the
			// replication stream's non-advancing digest, so the sampled set
			// is a pure function of the per-replication seed.
			probe.Seed(s)
			e.traceSampled[i] = trace.Sampled(probe.Digest(), sample)
		}
		e.tracers = make([]*trace.Tracer, e.nWorkers)
		e.traceBuf = make([]trace.Trace, e.p.Reps)
	}
	clear(e.traceBuf)
	e.tracing = true
	_, err := e.simulate(c)
	e.tracing = false
	// Detach the tracers so any later untraced replication on these
	// campaigns stays untraced.
	for _, camp := range e.camps {
		if camp != nil {
			camp.SetTracer(nil)
		}
	}
	if err != nil {
		return trace.Explanation{}, err
	}
	traces := make([]trace.Trace, 0, len(e.traceBuf))
	for i := range e.traceBuf {
		if e.traceSampled[i] {
			traces = append(traces, e.traceBuf[i])
		}
	}
	nodes := e.p.Topo.Nodes()
	return trace.Explain(traces, trace.ExplainOpts{
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

// bestFeasible returns the best archived candidate within budget (and
// within the zone constraint); equal values prefer the cheaper
// candidate, remaining ties keep the earliest evaluated (deterministic).
// The baseline is always in the archive, so the result is never worse
// than it.
func (e *Evaluator) bestFeasible(budget float64) (Score, Candidate, uint64) {
	var best archived
	found := false
	for _, c := range e.archive {
		if c.score.Cost > budget+budgetEps || !c.zoneOK || c.score.Quarantined {
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
	h := uint64(fnvOffsetBasis)
	for i := 0; i < len(role); i++ {
		h ^= uint64(role[i])
		h *= fnvPrime64
	}
	return rng.New(seed ^ h)
}

// FNV-1a 64-bit parameters (local copy; diversity keeps its own for
// fingerprinting).
const (
	fnvOffsetBasis = 14695981039346656037
	fnvPrime64     = 1099511628211
)

// Package optimize is the decision layer on top of the measurement
// pipeline: given a topology, a threat profile and a budget, it searches
// the space of diversity.Assignments for the one that minimizes attack
// success (or maximizes time-to-security-failure), using the Monte-Carlo
// campaign engine itself as the objective function.
//
// The paper's ANOVA step tells you WHICH component classes are worth
// diversifying; this package decides WHERE the scarce resilient variants
// go — the budget-constrained assignment optimization that Li et al.
// ("Improving ICS Cyber Resilience through Optimal Diversification of
// Network Resources") and Laszka et al. formalize. The pluggable
// strategies share one Optimizer interface: greedy marginal-gain
// placement (with surrogate screening of large option spaces), simulated
// annealing over neighbor moves (upgrade / drop / relocate / swap a
// node's variant), a genetic search with crossover over node-variant
// overlays, the portfolio chain, and an NSGA-II multi-objective search
// ("pareto") over the cost × attack-success × detection-speed front.
// All of them drive a shared Evaluator that
// fans replications out over a pool of workers with per-worker reusable
// campaigns and per-replication seeded RNG streams (common random numbers
// across candidates), memoizing scores by assignment fingerprint so an
// identical candidate is never re-simulated.
//
// Every search is deterministic for a given (Problem, strategy, Seed)
// regardless of the worker count.
package optimize

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/evalstore"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/rotation"
	"diversify/internal/telemetry"
	"diversify/internal/topology"
	"diversify/internal/trace"
)

// ErrBadProblem reports an invalid optimization request.
var ErrBadProblem = errors.New("optimize: invalid problem")

// Objective selects the scalar the search minimizes.
type Objective int

// Supported objectives.
const (
	// MinimizeSuccess minimizes the attack-success probability; the mean
	// final compromised ratio breaks ties at 1e-3 weight (success rate has
	// resolution 1/reps, the ratio refines between those steps).
	MinimizeSuccess Objective = iota + 1
	// MinimizeRatio minimizes the mean final compromised ratio.
	MinimizeRatio
	// MaximizeTTSF maximizes the mean time-to-security-failure (censored
	// at the horizon), i.e. minimizes its negation.
	MaximizeTTSF
	// MinimizeFoothold minimizes the mean intruder foothold time (the
	// attacker-dwell indicator the moving-target literature optimizes:
	// total time at least one node is compromised). Static placements can
	// only delay the first compromise; rotation schedules also evict, so
	// this is the objective that makes the schedule dimension earn its
	// budget share.
	MinimizeFoothold
)

func (o Objective) String() string {
	switch o {
	case MinimizeSuccess:
		return "min-success"
	case MinimizeRatio:
		return "min-ratio"
	case MaximizeTTSF:
		return "max-ttsf"
	case MinimizeFoothold:
		return "min-foothold"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Axis is one minimized dimension of the multi-objective front: the
// Pareto extraction and the NSGA-II search compare candidates by the
// objective vector these axes select from a Score.
type Axis int

// Front axes. All are minimized.
const (
	// AxisCost is the cost-model price.
	AxisCost Axis = iota + 1
	// AxisSuccess is the attack-success probability, refined by the mean
	// final compromised ratio at 1e-3 weight — the same scalar
	// MinimizeSuccess minimizes, so the scalar incumbent always sits on
	// the front.
	AxisSuccess
	// AxisDetection is the negated detection speed: the mean intruder
	// dwell time before detection (MeanDetLatency).
	AxisDetection
	// AxisFoothold is the mean intruder foothold time (MeanFoothold) —
	// the eviction axis rotation schedules move.
	AxisFoothold
)

func (a Axis) String() string {
	switch a {
	case AxisCost:
		return "cost"
	case AxisSuccess:
		return "success"
	case AxisDetection:
		return "detection"
	case AxisFoothold:
		return "foothold"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// of extracts the axis value from a score.
func (a Axis) of(s Score) float64 {
	switch a {
	case AxisCost:
		return s.Cost
	case AxisSuccess:
		return s.PSuccess + 1e-3*s.FinalRatio
	case AxisDetection:
		return s.MeanDetLatency
	case AxisFoothold:
		return s.MeanFoothold
	default:
		return math.NaN()
	}
}

// ParseAxes resolves front-axis names ("cost", "success", "detection",
// "foothold"). An empty list selects the default cost × success ×
// detection front.
func ParseAxes(names []string) ([]Axis, error) {
	if len(names) == 0 {
		return DefaultAxes(), nil
	}
	out := make([]Axis, 0, len(names))
	for _, n := range names {
		switch n {
		case "cost":
			out = append(out, AxisCost)
		case "success":
			out = append(out, AxisSuccess)
		case "detection":
			out = append(out, AxisDetection)
		case "foothold":
			out = append(out, AxisFoothold)
		default:
			return nil, fmt.Errorf("%w: unknown objective axis %q (want cost, success, detection or foothold)", ErrBadProblem, n)
		}
	}
	return out, nil
}

// DefaultAxes returns the full cost × success × detection front.
func DefaultAxes() []Axis { return []Axis{AxisCost, AxisSuccess, AxisDetection} }

// Problem is one budget-constrained placement optimization.
type Problem struct {
	Topo    *topology.Topology
	Catalog *exploits.Catalog
	Profile malware.Profile
	// Base is the starting overlay (nil = topology defaults everywhere).
	Base *diversity.Assignment
	// Options is the search space: the feasible (node, class, variant)
	// switches, typically diversity.EnumerateOptions output.
	Options []diversity.Option
	// Cost prices an assignment; Budget caps Cost(Topo, candidate).
	Cost   diversity.CostModel
	Budget float64
	// Objective selects the minimized scalar (default MinimizeSuccess).
	Objective Objective
	// Axes selects the dimensions of the reported Pareto front and of
	// the "pareto" strategy's dominance comparisons (default: the full
	// cost × success × detection front).
	Axes []Axis
	// ScreenTop bounds how many surrogate-ranked options greedy
	// simulates per round: 0 picks the default (no screening up to 48
	// options, then a quarter of the space with a floor of 24), negative
	// disables screening, positive pins K. See screenScores.
	ScreenTop int
	// Rotations is the schedule dimension of the search space: candidate
	// moving-target rotation policies any placement may be paired with
	// (empty = static-only search, the PR 1–4 behavior). A schedule's
	// PlannedCost over the horizon is folded into the candidate cost, so
	// rotation spend competes with placement spend under one Budget.
	Rotations []rotation.Spec
	// BaseRotation selects the starting candidate's schedule as
	// 1+index into Rotations (0 = static start). The portfolio strategy
	// uses it to reseed stochastic stages from a rotated incumbent.
	BaseRotation int
	// MaxPerZone, when positive, constrains every topology zone to at
	// most MaxPerZone distinct effective variants per component class —
	// the fleet-management bound beyond the budget. Enforced by
	// Evaluator.Score and genetic/NSGA-II repair; the base configuration
	// must satisfy it.
	MaxPerZone int
	// Horizon is the campaign observation window in hours (default 720).
	Horizon float64
	// Reps is the Monte-Carlo replication count per candidate (default 50).
	Reps int
	// Workers bounds evaluation parallelism (<= 0 → GOMAXPROCS).
	Workers int
	// Seed drives every random choice: evaluation streams, strategy
	// moves, the random-fill comparison baseline.
	Seed uint64
	// Iterations bounds the search: annealing proposals, genetic
	// generations, greedy rounds (0 = strategy default).
	Iterations int
	// Population is the genetic and pareto (NSGA-II) population size
	// (0 = default 16).
	Population int
	// FirewallVariant optionally overrides every firewalled link.
	FirewallVariant exploits.VariantID
	// TraceSample, when positive, captures causal attack traces for this
	// fraction of replications (deterministically sampled per Seed) while
	// replaying the baseline and winning candidates after the search, and
	// reports the aggregated explanations on Result.Explanations. The
	// search itself always runs untraced; capture consumes no RNG draw,
	// so every score, trace step and front is byte-identical with
	// explanations on or off.
	TraceSample float64

	// repHook is the robustness tests' fault-injection seam: called once
	// per replication attempt before the campaign runs. Unexported — the
	// public search surface has no business observing replications.
	repHook func(c Candidate, rep int)
	// canarySeed replaces the stale-science canary's stream seed when
	// non-zero: the store tests' seam for changing the canary's result.
	canarySeed uint64
}

// normalize fills defaults in place.
func (p *Problem) normalize() {
	if p.Objective == 0 {
		p.Objective = MinimizeSuccess
	}
	if p.Horizon <= 0 {
		p.Horizon = 720
	}
	if p.Reps <= 0 {
		p.Reps = 50
	}
	if p.Population <= 0 {
		p.Population = 16
	}
	if len(p.Axes) == 0 {
		p.Axes = DefaultAxes()
	}
}

// validate checks the problem after normalization.
func (p *Problem) validate() error {
	if p.Topo == nil || p.Catalog == nil {
		return fmt.Errorf("%w: topology and catalog are required", ErrBadProblem)
	}
	if err := p.Profile.Validate(); err != nil {
		return err
	}
	if len(p.Options) == 0 {
		return fmt.Errorf("%w: empty option space", ErrBadProblem)
	}
	if p.Budget < 0 || math.IsNaN(p.Budget) {
		return fmt.Errorf("%w: budget %v", ErrBadProblem, p.Budget)
	}
	switch p.Objective {
	case MinimizeSuccess, MinimizeRatio, MaximizeTTSF, MinimizeFoothold:
	default:
		return fmt.Errorf("%w: unknown objective %d", ErrBadProblem, int(p.Objective))
	}
	for _, a := range p.Axes {
		switch a {
		case AxisCost, AxisSuccess, AxisDetection, AxisFoothold:
		default:
			return fmt.Errorf("%w: unknown front axis %d", ErrBadProblem, int(a))
		}
	}
	for i, spec := range p.Rotations {
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("%w: rotation spec %d: %v", ErrBadProblem, i, err)
		}
	}
	if p.BaseRotation < 0 || p.BaseRotation > len(p.Rotations) {
		return fmt.Errorf("%w: base rotation %d outside [0, %d]", ErrBadProblem, p.BaseRotation, len(p.Rotations))
	}
	if p.MaxPerZone < 0 {
		return fmt.Errorf("%w: MaxPerZone %d", ErrBadProblem, p.MaxPerZone)
	}
	if p.TraceSample < 0 || p.TraceSample > 1 || math.IsNaN(p.TraceSample) {
		return fmt.Errorf("%w: trace sample %v outside [0, 1]", ErrBadProblem, p.TraceSample)
	}
	if p.MaxPerZone > 0 && !zoneFeasible(p, p.Base) {
		return fmt.Errorf("%w: base configuration already exceeds MaxPerZone=%d", ErrBadProblem, p.MaxPerZone)
	}
	return nil
}

// base returns the starting assignment (never nil).
func (p *Problem) base() *diversity.Assignment {
	if p.Base != nil {
		return p.Base.Clone()
	}
	return diversity.NewAssignment()
}

// baseCand returns the starting candidate (placement + schedule).
func (p *Problem) baseCand() Candidate {
	return Candidate{A: p.base(), Rot: p.BaseRotation - 1}
}

// rotName names a schedule index ("static" for -1).
func (p *Problem) rotName(rot int) string {
	if rot < 0 || rot >= len(p.Rotations) {
		return "static"
	}
	return p.Rotations[rot].Name()
}

// Score is one evaluated candidate's measurements. Every field is a
// pure function of the assignment (common random numbers, aggregation
// in replication order), so scores are identical for every worker count
// and batch size.
type Score struct {
	// Value is the minimized scalar under the problem objective.
	Value float64 `json:"value"`
	// PSuccess is the attack-success fraction over the replications.
	PSuccess float64 `json:"p_success"`
	// MeanTTSF is the mean time-to-security-failure, censored at the
	// horizon for undetected replications.
	MeanTTSF float64 `json:"mean_ttsf"`
	// FinalRatio is the mean compromised ratio at the horizon.
	FinalRatio float64 `json:"final_ratio"`
	// PDetect is the fraction of replications in which defenders
	// perceived the attack.
	PDetect float64 `json:"p_detect"`
	// MeanDetLatency is the mean intruder dwell time before detection
	// (first detection minus first compromise, undetected replications
	// censored at the horizon, compromise-free ones contributing 0) —
	// the negated-detection-speed objective of the 3-D Pareto front.
	MeanDetLatency float64 `json:"mean_det_latency"`
	// MeanDetections is the mean detection-event count per replication.
	MeanDetections float64 `json:"mean_detections"`
	// Cost is the cost-model price of the candidate: the placement cost
	// plus the rotation schedule's PlannedCost over the horizon.
	Cost float64 `json:"cost"`
	// MeanFoothold is the mean total time the intruder held at least one
	// compromised node; MeanRotations / MeanReinfections /
	// MeanRotationCost measure the dynamic-diversity churn (all zero for
	// static candidates except MeanFoothold).
	MeanFoothold     float64 `json:"mean_foothold"`
	MeanRotations    float64 `json:"mean_rotations"`
	MeanReinfections float64 `json:"mean_reinfections"`
	MeanRotationCost float64 `json:"mean_rotation_cost"`
	// Quarantined marks a candidate whose evaluation panicked repeatedly
	// and was scored infeasible instead of crashing the run; every
	// measurement field except Cost is meaningless. Quarantined
	// candidates never win and never enter the Pareto front.
	Quarantined bool `json:"quarantined,omitempty"`
	// refused is why Evaluator.Score declined the candidate (zero: scored).
	refused refusal
}

// TraceStep is one recorded search step. The trace is part of the
// deterministic contract: same seed and configuration reproduce it
// byte for byte.
type TraceStep struct {
	Iter     int     `json:"iter"`
	Action   string  `json:"action"`
	Cost     float64 `json:"cost"`
	Value    float64 `json:"value"`
	Best     float64 `json:"best"`
	Accepted bool    `json:"accepted"`
	// Elapsed is the monotonic time since the evaluator started when the
	// step completed. Wall time is not deterministic, so it stays outside
	// the JSON byte-identity surface — a store-resumed run replays
	// pre-crash rounds at store speed and its Elapsed stamps honestly say
	// so.
	Elapsed time.Duration `json:"-"`
}

// Decision is one human-readable placement decision of the winning
// assignment.
type Decision struct {
	Node    string `json:"node"`
	Class   string `json:"class"`
	Variant string `json:"variant"`
}

// ParetoPoint is one non-dominated candidate of the multi-objective
// front (cost × attack-success × detection speed under the problem's
// Axes). Points are deduplicated by objective vector and sorted
// lexicographically by it (then fingerprint), so the front is stable
// byte for byte across runs, worker counts and batch sizes.
type ParetoPoint struct {
	Cost           float64    `json:"cost"`
	Value          float64    `json:"value"`
	PSuccess       float64    `json:"p_success"`
	FinalRatio     float64    `json:"final_ratio"`
	PDetect        float64    `json:"p_detect"`
	MeanDetLatency float64    `json:"mean_det_latency"`
	MeanDetections float64    `json:"mean_detections"`
	MeanFoothold   float64    `json:"mean_foothold"`
	Rotation       string     `json:"rotation"`
	Fingerprint    uint64     `json:"fingerprint"`
	Decisions      []Decision `json:"decisions"`
}

// Result is the outcome of one optimization run.
type Result struct {
	Strategy  string  `json:"strategy"`
	Objective string  `json:"objective"`
	Budget    float64 `json:"budget"`
	// Baseline scores the starting assignment; Random scores a uniform
	// random fill within the budget and MaxPerZone (the PlaceRandom-style
	// comparison the paper's case study argues against).
	Baseline Score `json:"baseline"`
	Random   Score `json:"random"`
	// Best is the best feasible candidate the search evaluated (never
	// worse than Baseline, which is itself a candidate).
	Best            Score      `json:"best"`
	BestFingerprint uint64     `json:"best_fingerprint"`
	Decisions       []Decision `json:"decisions"`
	// BestRotation names the winning schedule ("static" when the winner
	// rotates nothing).
	BestRotation string `json:"best_rotation"`
	// BestAssignment is the winning overlay (not serialized; Decisions is
	// the portable form).
	BestAssignment *diversity.Assignment `json:"-"`
	// BestRotationSpec is the winning schedule (nil = static).
	BestRotationSpec *rotation.Spec `json:"-"`
	Trace            []TraceStep    `json:"trace"`
	Pareto           []ParetoPoint  `json:"pareto"`
	// Explanations carries the causal attack-trace reports for the
	// baseline and winning candidates when Problem.TraceSample > 0
	// (replayed after the search under the same CRN streams). Every field
	// is deterministic — explanations sit INSIDE the JSON byte-identity
	// surface, unlike Telemetry.
	Explanations []trace.Explanation `json:"explanations,omitempty"`
	// Degraded is empty for a run that completed normally; otherwise it
	// names why the search stopped early (context cancellation or
	// deadline). A degraded result still carries the best feasible
	// candidate, trace prefix and front evaluated before the
	// interruption, but Random is skipped (zero Score).
	Degraded string `json:"degraded,omitempty"`
	// Cache and effort accounting. These are logical counts, identical
	// whether a candidate was simulated or served from the durable store
	// (a store-resumed run must print the uninterrupted run's numbers):
	// Evaluations counts the distinct candidates the search scored
	// (== CacheMisses), Replications is Evaluations × Reps. The random
	// baseline is not billed. Stats.StoreHits counts the store's serves.
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	Evaluations  int `json:"evaluations"`
	Replications int `json:"replications"`
	// Stats is the fault-tolerance runtime bookkeeping (store traffic,
	// retries, quarantines, wall-clock). Outside the JSON surface so the
	// byte-identity contract between clean and store-resumed runs holds.
	Stats RunStats `json:"-"`
	// Telemetry is the run report aggregated from the progress-event
	// stream: evaluations, cache-hit and warm-start ratios, retries and
	// quarantines, per-strategy wall time. Nil — and so
	// absent from the JSON — unless RunOptions attached a Sink or Metrics
	// registry; it carries wall times, so it is deliberately outside the
	// byte-identity surface.
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
}

// Optimizer is one pluggable search strategy. Search explores the space
// by calling ev.Score (memoized, and refusing infeasible candidates, so
// strategies need no pre-checks) and returns its step trace; Run
// extracts the best candidate from the evaluator archive afterwards.
//
// Search must honor ctx: when it is cancelled (or its deadline passes),
// the strategy stops at the next step boundary and returns the partial
// trace together with the context's error. Everything evaluated so far
// stays in the evaluator archive, so Run can still extract a best-so-far
// incumbent and front from an interrupted search.
type Optimizer interface {
	Name() string
	Search(ctx context.Context, p *Problem, ev *Evaluator, r *rng.Rand) ([]TraceStep, error)
}

// ByName returns the named strategy ("greedy", "anneal", "genetic",
// "portfolio" or "pareto").
func ByName(name string) (Optimizer, error) {
	switch name {
	case "greedy":
		return &Greedy{}, nil
	case "anneal":
		return &Anneal{}, nil
	case "genetic":
		return &Genetic{}, nil
	case "portfolio":
		return &Portfolio{}, nil
	case "pareto":
		return &Pareto{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown strategy %q (want greedy, anneal, genetic, portfolio or pareto)", ErrBadProblem, name)
	}
}

// RunOptions configures the runtime around a search: the durable
// evaluation store and telemetry. The zero value disables both (a plain
// run).
type RunOptions struct {
	// StorePath, when set, attaches the durable evaluation store
	// (internal/evalstore): cache misses consult it before spending
	// replications, and fresh measurements and quarantine verdicts are
	// appended crash-safely. A later re-optimization — same plant and
	// threat, tweaked budget, objective or strategy — warm-starts from
	// everything already measured, and re-running an interrupted search
	// against the same store resumes it: the deterministic search replays
	// with every pre-crash evaluation served from disk, so the Result is
	// byte-identical to an uninterrupted run under any worker count.
	// Created on first use; a torn tail from a crash is truncated away on
	// open.
	StorePath string
	// Sink, when non-nil, receives the structured progress-event stream:
	// RunStarted, one RoundCompleted per search round, EvaluationBatch
	// per simulated or store-served candidate, WorkerQuarantined,
	// StoreWarmStart, ExplanationReady, RunFinished. Implementations must be safe for
	// concurrent use.
	// Telemetry observes, never steers: the Result is byte-identical
	// (Telemetry field aside) with or without a sink.
	Sink telemetry.Sink
	// Metrics, when non-nil, is live-updated during the run (counters,
	// gauges, eval-latency and round-duration histograms) so a /metrics
	// scrape mid-search sees current state. Attaching either Sink or
	// Metrics also populates Result.Telemetry.
	Metrics *telemetry.Registry
}

// RunStats is the runtime bookkeeping of one RunWith call. It rides on
// Result outside the JSON surface, so clean and store-resumed runs stay
// byte-identical where determinism is asserted.
type RunStats struct {
	// StoreHits / StorePuts count durable evaluation-store traffic,
	// quarantine tombstones included (zero when no store is attached).
	StoreHits int
	StorePuts int
	// Retries counts replication attempts that panicked and were replayed
	// under the same stream seed; Quarantined the candidates scored
	// infeasible after a replication exhausted des.Pool's panic retries.
	Retries     int
	Quarantined int
	// Elapsed is the full RunWith wall-clock.
	Elapsed time.Duration
}

// Run executes one optimization: baseline evaluation, strategy search,
// best-candidate extraction, Pareto front and the random-fill comparison
// baseline. It is RunContext under a background context.
func Run(p Problem, o Optimizer) (*Result, error) {
	//diversify:allow-context Run is the documented no-cancellation entry point; cancellable callers use RunContext
	return RunContext(context.Background(), p, o)
}

// interrupted reports whether err is a context cancellation or deadline
// (possibly wrapped) — the errors that degrade a run instead of failing
// it.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunContext is Run under a caller-controlled context. Cancelling ctx
// (or passing one with a deadline) stops the search at the next step
// boundary: in-flight replications drain, and instead of returning
// nothing the run reports the best feasible candidate evaluated so far
// — with Result.Degraded naming the interruption — so a multi-minute
// search killed by Ctrl-C still salvages its incumbent and front. A
// context cancelled before the baseline evaluation completes returns an
// error: with nothing evaluated there is no incumbent to salvage.
func RunContext(ctx context.Context, p Problem, o Optimizer) (*Result, error) {
	return RunWith(ctx, p, o, RunOptions{})
}

// RunWith is RunContext with the runtime options attached: the durable
// evaluation store and telemetry. The store doubles as the crash
// recovery state. Resume is replay-based — re-running against the store
// of an interrupted run serves every pre-crash evaluation from disk
// while the deterministic search retraces its trajectory — so the
// resumed run's Result is byte-identical to an uninterrupted one,
// regardless of where the original died or how many workers either run
// used.
func RunWith(ctx context.Context, p Problem, o Optimizer, opts RunOptions) (*Result, error) {
	started := wallClock()
	p.normalize()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if o == nil {
		return nil, fmt.Errorf("%w: nil strategy", ErrBadProblem)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		return nil, err
	}
	ev.ctx = ctx
	ev.started = started
	// The collector turns the event stream into Result.Telemetry (and
	// keeps the metrics registry current); the caller's sink sees the
	// same stream. With neither configured ev.sink stays nil and every
	// hot-path emission is one nil-check.
	var coll *telemetry.Collector
	if opts.Sink != nil || opts.Metrics != nil {
		coll = telemetry.NewCollector(opts.Metrics)
		ev.sink = telemetry.Multi(opts.Sink, coll)
	}
	if ev.sink != nil {
		ev.sink.Emit(telemetry.RunStarted{
			Strategy: o.Name(), Objective: p.Objective.String(), Budget: p.Budget,
			Options: len(p.Options), Rotations: len(p.Rotations),
			Reps: p.Reps, Workers: ev.pool.Workers(),
		})
	}
	if opts.StorePath != "" {
		store, err := evalstore.Open(opts.StorePath)
		if err != nil {
			return nil, err
		}
		defer store.Close()
		ev.store = store
		ev.topoFP = p.Topo.Fingerprint()
		if ev.specFP, err = evalSpecDigest(&p); err != nil {
			return nil, err
		}
		if ev.sink != nil {
			ev.sink.Emit(telemetry.StoreWarmStart{Path: opts.StorePath, Evaluations: store.Len()})
		}
	}
	baseline, err := ev.Score(p.baseCand())
	if err != nil {
		return nil, err
	}
	if baseline.refused != 0 {
		// validate checked the base's zones, so its cost is over budget.
		return nil, fmt.Errorf("%w: no feasible candidate — base assignment costs %.2f against budget %.2f",
			ErrBadProblem, baseline.Cost, p.Budget)
	}
	degraded := ""
	steps, err := o.Search(ctx, &p, ev, newSearchRand(p.Seed, o.Name()))
	if err != nil {
		if !interrupted(err) {
			return nil, err
		}
		degraded = "search interrupted: " + err.Error()
	}
	best, bestC, bestFP := ev.bestFeasible()
	if bestC.A == nil {
		// Every evaluation was quarantined — a zero-valued Best would read
		// as a perfect free placement.
		return nil, fmt.Errorf("%w: no feasible candidate — every evaluation was quarantined", ErrBadProblem)
	}
	// Snapshot the effort accounting before the comparison row below, so
	// the random baseline's simulation is not billed to the strategy.
	// The counters are derived logically — misses as distinct evaluated
	// candidates (cache size), hits as the remaining Score calls — so a
	// store-resumed run reports exactly the numbers of the uninterrupted
	// run.
	misses := len(ev.cache)
	hits := ev.hits + ev.misses - misses
	// The random baseline is evaluated outside the archive so "best found
	// by the strategy" never silently points at the comparison row. A
	// degraded run skips it (its zero Score documents itself via
	// Degraded): the incumbent should reach the caller as fast as the
	// drain allows, not after one more full evaluation.
	var random Score
	if degraded == "" {
		mark := len(ev.archive)
		random, err = ev.Score(Candidate{A: randomFill(&p, newSearchRand(p.Seed, "random-baseline")), Rot: -1})
		ev.archive = ev.archive[:mark]
		if err != nil {
			if !interrupted(err) {
				return nil, err
			}
			degraded = "random baseline skipped: " + err.Error()
			random = Score{}
		}
	}
	// Explanation phase: replay the comparison pair — starting candidate
	// vs winner — with trace capture and aggregate the causal reports.
	// Skipped for degraded runs (the incumbent should reach the caller as
	// fast as the drain allows) and for candidates that trip a quarantine
	// during the replay.
	var explanations []trace.Explanation
	if p.TraceSample > 0 && degraded == "" {
		for _, ec := range []struct {
			label string
			c     Candidate
		}{{"baseline", p.baseCand()}, {"best", bestC}} {
			ex, xerr := ev.explain(ec.label, ec.c, p.TraceSample)
			if xerr != nil {
				var pe *des.PanicError
				if errors.As(xerr, &pe) {
					continue
				}
				return nil, xerr
			}
			explanations = append(explanations, ex)
			if ev.sink != nil {
				ev.sink.Emit(telemetry.ExplanationReady{
					Candidate: ex.Candidate, Rotation: ex.Rotation,
					Sampled: ex.Sampled, Records: ex.Records,
					Paths: len(ex.Paths), ChokePoints: len(ex.ChokePoints),
				})
			}
		}
	}
	res := &Result{
		Strategy:        o.Name(),
		Objective:       p.Objective.String(),
		Budget:          p.Budget,
		Baseline:        baseline,
		Random:          random,
		Best:            best,
		BestFingerprint: bestFP,
		BestAssignment:  bestC.A,
		BestRotation:    p.rotName(bestC.Rot),
		Decisions:       decisionsOf(p.Topo, bestC.A),
		Trace:           steps,
		Pareto:          paretoFront(&p, ev),
		Explanations:    explanations,
		Degraded:        degraded,
		CacheHits:       hits,
		CacheMisses:     misses,
		Evaluations:     misses,
		Replications:    misses * p.Reps,
	}
	if bestC.Rot >= 0 {
		spec := p.Rotations[bestC.Rot]
		res.BestRotationSpec = &spec
	}
	stats := RunStats{
		StoreHits:   ev.storeHits,
		StorePuts:   ev.storePuts,
		Retries:     ev.retries,
		Quarantined: ev.quarantined,
		Elapsed:     sinceWall(started),
	}
	res.Stats = stats
	if ev.sink != nil {
		// RunFinished carries the authoritative totals — the same numbers
		// the Result reports — so any collector's summary is consistent
		// with the returned Result by construction.
		ev.sink.Emit(telemetry.RunFinished{
			Strategy:     o.Name(),
			Best:         best.Value,
			Evaluations:  res.Evaluations,
			CacheHits:    res.CacheHits,
			StoreHits:    stats.StoreHits,
			StorePuts:    stats.StorePuts,
			Replications: res.Replications,
			Retries:      stats.Retries,
			Quarantined:  stats.Quarantined,
			Degraded:     degraded,
			Elapsed:      stats.Elapsed,
		})
	}
	if coll != nil {
		res.Telemetry = coll.Report()
	}
	return res, nil
}

// decisionsOf renders an assignment's overlay entries with node names.
func decisionsOf(t *topology.Topology, a *diversity.Assignment) []Decision {
	if a == nil {
		return nil
	}
	nodes := t.Nodes()
	entries := a.Entries()
	out := make([]Decision, len(entries))
	for i, e := range entries {
		out[i] = Decision{
			Node:    nodes[e.Node].Name,
			Class:   e.Class.String(),
			Variant: string(e.Variant),
		}
	}
	return out
}

// objVec maps a score to the problem's objective vector (all axes
// minimized).
func objVec(axes []Axis, s Score) []float64 {
	v := make([]float64, len(axes))
	for i, a := range axes {
		v[i] = a.of(s)
	}
	return v
}

// dominates reports whether objective vector a Pareto-dominates b: no
// worse on every axis and strictly better on at least one.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// compareVec orders objective vectors lexicographically.
func compareVec(a, b []float64) int {
	for i := range a {
		if c := cmp.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// paretoFront extracts the non-dominated set from the evaluator archive
// (feasible by construction) over the problem's axes — front 0 of
// NSGA-II's non-dominated sort. Candidates harvested from the cache with
// identical objective vectors (distinct assignments that measure the
// same) are deduplicated, keeping the lowest fingerprint, and the front
// is sorted by objective vector then fingerprint — so the -json output
// is stable across runs.
func paretoFront(p *Problem, ev *Evaluator) []ParetoPoint {
	cands := make([]pind, 0, len(ev.archive))
	for _, c := range ev.archive {
		if !c.score.Quarantined {
			cands = append(cands, pind{c: c.cand, s: c.score, fp: c.fingerprint, vec: objVec(p.Axes, c.score)})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	slices.SortFunc(cands, func(a, b pind) int {
		if c := compareVec(a.vec, b.vec); c != 0 {
			return c
		}
		return cmp.Compare(a.fp, b.fp)
	})
	// Dedupe equal vectors (the sort put the lowest fingerprint first).
	uniq := cands[:0]
	for i, s := range cands {
		if i > 0 && compareVec(uniq[len(uniq)-1].vec, s.vec) == 0 {
			continue
		}
		uniq = append(uniq, s)
	}
	front0 := nonDominatedFronts(uniq)[0]
	front := make([]ParetoPoint, len(front0))
	for k, i := range front0 {
		m := uniq[i]
		front[k] = ParetoPoint{
			Cost:           m.s.Cost,
			Value:          m.s.Value,
			PSuccess:       m.s.PSuccess,
			FinalRatio:     m.s.FinalRatio,
			PDetect:        m.s.PDetect,
			MeanDetLatency: m.s.MeanDetLatency,
			MeanDetections: m.s.MeanDetections,
			MeanFoothold:   m.s.MeanFoothold,
			Rotation:       p.rotName(m.c.Rot),
			Fingerprint:    m.fp,
			Decisions:      decisionsOf(p.Topo, m.c.A),
		}
	}
	return front
}

// budgetEps absorbs float accumulation error in cost comparisons.
const budgetEps = 1e-9

// withinBudget is the one budget test every strategy, repair and
// harvest applies. A NaN cost is never within budget.
func (p *Problem) withinBudget(cost float64) bool { return cost <= p.Budget+budgetEps }

// randomFill applies resilience-improving options in uniformly random
// order, keeping every one that stays within budget and MaxPerZone — the
// PlaceRandom policy ("spread hardening at random") the case study
// compares against strategic placement. The full option space also contains sideways and
// downgrade switches the search may traverse; a random baseline drawing
// those would be a strawman, so only upgrades qualify here.
func randomFill(p *Problem, r *rng.Rand) *diversity.Assignment {
	a := p.base()
	upgrades := upgradeOptions(p)
	order := r.Perm(len(upgrades))
	for _, idx := range order {
		opt := upgrades[idx]
		prev, had := a.Lookup(opt.Node, opt.Class)
		opt.Apply(a)
		if !p.withinBudget(p.Cost.Cost(p.Topo, a)) || !zoneFeasible(p, a) {
			a.Restore(opt.Node, opt.Class, prev, had)
		}
	}
	return a
}

// upgradeOptions filters the option space to switches that strictly
// increase the node's variant resilience over its topology default.
func upgradeOptions(p *Problem) []diversity.Option {
	nodes := p.Topo.Nodes()
	var out []diversity.Option
	for _, opt := range p.Options {
		def, ok := nodes[opt.Node].Component(opt.Class)
		if !ok {
			continue
		}
		dv, okD := p.Catalog.Variant(def)
		nv, okN := p.Catalog.Variant(opt.Variant)
		if okD && okN && nv.Resilience > dv.Resilience {
			out = append(out, opt)
		}
	}
	return out
}

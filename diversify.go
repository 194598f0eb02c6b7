// Package diversify is the public facade of a diversity-based security
// assessment framework for monitoring and control (SCADA) systems,
// reproducing Cotroneo, Pecchia & Russo, "Towards Secure Monitoring and
// Control Systems: Diversify!" (DSN 2013).
//
// The framework implements the paper's three-step approach:
//
//  1. Attack Modeling — executable threat models (stochastic activity
//     networks, attack trees, Bayesian networks, or a full SCADA campaign
//     simulator with Stuxnet/Duqu/Flame profiles);
//  2. DoE & Measurements — factorial / fractional-factorial experiment
//     designs over component variants, measured by parallel Monte-Carlo
//     replication of the security indicators Time-To-Attack,
//     Time-To-Security-Failure and compromised ratio;
//  3. Diversity Assessment — ANOVA variance allocation identifying which
//     components are worth diversifying;
//  4. Diversity Placement — budget-constrained optimization deciding
//     WHERE the scarce resilient variants go: greedy, simulated-annealing
//     and NSGA-II multi-objective search over node-variant assignments
//     with the Monte-Carlo campaign engine as the objective function
//     (see Optimize).
//
// Quick start:
//
//	study, err := diversify.NewStuxnetStudy(diversify.StuxnetStudyConfig{
//	    OSLevels:  []string{"winxp-sp3", "win7"},
//	    PLCLevels: []string{"s7-315", "modicon-m340"},
//	    Reps:      50,
//	    Seed:      1,
//	})
//	results, err := study.Run()
//	assessment, err := results.Assess(
//	    []diversify.Indicator{diversify.IndicatorSuccess}, diversify.AnovaOptions{})
//	// assessment.Ranking tells you what to diversify first.
//
// The heavy machinery lives in internal packages (san, attacktree, bayes,
// markov, doe, anova, malware, scada, modbus, physics, topology,
// diversity, scope); this package re-exports the workflow types and
// provides ready-made constructors for the scenarios the paper discusses.
package diversify

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"diversify/internal/anova"
	"diversify/internal/core"
	"diversify/internal/diversity"
	"diversify/internal/doe"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/optimize"
	"diversify/internal/rotation"
	"diversify/internal/scope"
	"diversify/internal/telemetry"
	"diversify/internal/topology"
	"diversify/internal/trace"
)

// Workflow types re-exported from the core pipeline.
type (
	// Study is a scenario × design × replications experiment.
	Study = core.Study
	// Results holds raw outcomes and per-cell indicator reports.
	Results = core.Results
	// Assessment is the step-3 output (ANOVA tables + ranking).
	Assessment = core.Assessment
	// Scenario is an executable attack model: Replicate runs one design
	// run's replications, one per stream, under the run's factor levels.
	Scenario = core.Scenario
	// Levels maps factor names to chosen levels.
	Levels = core.Levels
	// Indicator selects a measured security indicator.
	Indicator = core.Indicator
	// AnovaOptions tunes the variance decomposition.
	AnovaOptions = anova.Options
	// Outcome is one replication's measurements.
	Outcome = indicators.Outcome
	// Report is a per-configuration indicator summary.
	Report = indicators.Report
	// Factor is a DoE factor.
	Factor = doe.Factor
	// Design is a DoE plan.
	Design = doe.Design
)

// Indicators (paper §II).
const (
	IndicatorTTA        = core.IndicatorTTA
	IndicatorTTSF       = core.IndicatorTTSF
	IndicatorSuccess    = core.IndicatorSuccess
	IndicatorFinalRatio = core.IndicatorFinalRatio
)

// StuxnetStudyConfig parameterizes the ready-made Stuxnet-vs-diversity
// study on the reference tiered SCADA topology.
type StuxnetStudyConfig struct {
	// OSLevels / PLCLevels / ProtocolLevels are catalog variant IDs used
	// as factor levels; empty slices omit the factor (at least one
	// factor with >= 2 levels is required).
	OSLevels       []string
	PLCLevels      []string
	ProtocolLevels []string
	FirewallLevels []string
	// Reps is the Monte-Carlo replication count per design cell.
	Reps int
	// Seed makes the whole study reproducible.
	Seed uint64
	// HorizonHours is the observation window (default 720 = 30 days).
	HorizonHours float64
	// Workers bounds parallelism (<= 0 → GOMAXPROCS).
	Workers int
}

// NewStuxnetStudy assembles a full-factorial study of a Stuxnet-like
// campaign on the reference tiered SCADA plant, with the requested
// component classes as diversity factors.
func NewStuxnetStudy(cfg StuxnetStudyConfig) (*Study, error) {
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("diversify: Reps must be positive, got %d", cfg.Reps)
	}
	horizon := cfg.HorizonHours
	if horizon <= 0 {
		horizon = 720
	}
	var factors []doe.Factor
	classes := map[string]exploits.Class{}
	add := func(name string, levels []string, class exploits.Class) {
		if len(levels) >= 2 {
			factors = append(factors, doe.Factor{Name: name, Levels: levels})
			classes[name] = class
		}
	}
	add("OS", cfg.OSLevels, exploits.ClassOS)
	add("PLC", cfg.PLCLevels, exploits.ClassPLCFirmware)
	add("Protocol", cfg.ProtocolLevels, exploits.ClassProtocol)
	add("Firewall", cfg.FirewallLevels, exploits.ClassFirewall)
	if len(factors) == 0 {
		return nil, fmt.Errorf("diversify: at least one factor with >= 2 levels is required")
	}
	design, err := doe.FullFactorial(factors)
	if err != nil {
		return nil, err
	}
	topo := topology.NewTieredSCADA(topology.DefaultTieredSpec())
	scn := &core.CampaignScenario{
		Topo:    topo,
		Catalog: exploits.StuxnetCatalog(),
		Profile: malware.StuxnetProfile(),
		Horizon: horizon,
		Factors: classes,
	}
	return &Study{Scenario: scn, Design: design, Reps: cfg.Reps, Seed: cfg.Seed, Workers: cfg.Workers}, nil
}

// PlacementResult is one cell of the SCoPE placement experiment.
type PlacementResult = scope.PlacementCell

// RunScopePlacement reproduces the paper's case-study claim on the
// SCoPE-like cooling system: it sweeps the number of hardened components
// k over both random and strategic (cut-node) placement and reports the
// attack success probability and mean time-to-attack per cell.
func RunScopePlacement(resilientCounts []int, reps int, seed uint64, horizonHours float64) ([]PlacementResult, error) {
	cs := scope.NewCaseStudy()
	return cs.PlacementExperiment(resilientCounts,
		[]scope.Strategy{scope.StrategyRandom, scope.StrategyStrategic, scope.StrategyWorst},
		reps, seed, horizonHours)
}

// ThreatProfiles returns the built-in threat models (the paper's Stuxnet
// plus the future-work Duqu and Flame), keyed by name.
func ThreatProfiles() map[string]malware.Profile {
	return map[string]malware.Profile{
		"stuxnet": malware.StuxnetProfile(),
		"duqu":    malware.DuquProfile(),
		"flame":   malware.FlameProfile(),
	}
}

// Step-4 re-exports: the placement optimizer's result types.
type (
	// OptimizeResult is a placement optimization outcome: baseline /
	// random / best scores, the winning decisions, the search trace, the
	// multi-objective (cost × success × detection) Pareto front and
	// cache accounting.
	OptimizeResult = optimize.Result
	// OptimizeScore is one evaluated candidate's measurements.
	OptimizeScore = optimize.Score
	// PlacementDecision is one node-variant decision of the winner.
	PlacementDecision = optimize.Decision
	// ParetoPoint is one non-dominated candidate of the front.
	ParetoPoint = optimize.ParetoPoint
	// AttackExplanation is one aggregated causal trace report (attack
	// paths, choke points, detection timeline, rotation chronology)
	// carried on OptimizeResult.Explanations when TraceSample is set.
	AttackExplanation = trace.Explanation
	// ProgressSink receives the structured progress events the runtime
	// emits while a search runs (run started, round completed, evaluation
	// batches, quarantines, warm starts, run finished).
	// Implementations must be safe for concurrent use.
	ProgressSink = telemetry.Sink
	// ProgressEvent is one structured progress event; switch on its
	// concrete type (telemetry.RoundCompleted etc.) or Kind tag.
	ProgressEvent = telemetry.Event
	// MetricsRegistry is the dependency-free metrics registry the runtime
	// fills when attached; it snapshots to Prometheus text exposition.
	MetricsRegistry = telemetry.Registry
	// TelemetryReport is the JSON-ready run summary populated on
	// OptimizeResult.Telemetry when a sink or registry is attached.
	TelemetryReport = telemetry.Report
)

// NewMetricsRegistry returns an empty metrics registry to attach via
// OptimizeConfig.Metrics and scrape via its Handler.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// OptimizeConfig parameterizes the step-4 placement optimization on a
// built-in reference topology.
type OptimizeConfig struct {
	// Topology selects the plant: "tiered" (default), "powergrid", or a
	// generated meshed transmission grid "grid:N" with N substations
	// (optionally "grid:N:R" to pin the region count; default one region
	// per 25 substations). "grid:200" builds ~1200 nodes.
	Topology string
	// Threat selects the profile: "stuxnet" (default), "duqu", "flame".
	Threat string
	// Strategy selects the search: "greedy" (default), "anneal", or
	// "pareto" (NSGA-II multi-objective search over the cost × success ×
	// detection front).
	Strategy string
	// Classes are the diversifiable component classes by factor name
	// ("OS", "PLC", "Protocol", "HMI", "EngTools", "Historian"); default
	// OS + PLC + Protocol.
	Classes []string
	// Objective selects the minimized indicator: "success" (default,
	// attack-success probability), "ratio" (final compromised ratio),
	// "ttsf" (maximize time-to-security-failure) or "foothold" (minimize
	// the mean intruder foothold time — the objective that rewards
	// moving-target eviction, not just prevention).
	Objective string
	// Objectives selects the axes of the reported Pareto front and of
	// the "pareto" strategy's dominance comparisons, from "cost",
	// "success", "detection" and "foothold" (empty = cost, success and
	// detection).
	Objectives []string
	// ScreenTop bounds how many surrogate-ranked options greedy
	// simulates per round: 0 applies the default screen on large option
	// spaces, negative disables screening, positive pins K.
	ScreenTop int
	// Rotations adds the dynamic-diversity (moving-target) dimension:
	// each entry is a rotation-schedule selector ("periodic:24",
	// "triggered:48x2", "adaptive:72") any placement may be paired with;
	// the schedule's planned cost over the horizon competes with
	// placement spend under the same Budget. Empty = static-only search.
	Rotations []string
	// MaxPerZone, when positive, allows at most this many distinct
	// variants per component class within each topology zone (the
	// fleet-management constraint beyond the budget).
	MaxPerZone int
	// Budget caps the cost model; PlatformCost prices each extra distinct
	// variant per class (default 5), NodeCost each deviating node
	// (default 2).
	Budget       float64
	PlatformCost float64
	NodeCost     float64
	// Iterations bounds the search (annealing proposals / NSGA-II
	// generations / greedy rounds; 0 = strategy default); Population is
	// the pareto (NSGA-II) population size.
	Iterations int
	Population int
	// Reps is the Monte-Carlo replication count per candidate (default
	// 50); HorizonHours the observation window (default 720); Seed makes
	// the search reproducible; Workers bounds parallelism.
	Reps         int
	HorizonHours float64
	Seed         uint64
	Workers      int
	// Store, when set, attaches the durable evaluation store at this
	// path: completed measurements are appended crash-safely and re-used
	// to warm-start re-optimizations under tweaked budgets or objectives.
	// It is also the crash-recovery state: re-running an interrupted
	// search with the same Store replays it from the stored measurements,
	// and the result is byte-identical to an uninterrupted run.
	Store string
	// TraceSample, when positive, replays the baseline and winning
	// candidates after the search with causal trace capture on this
	// fraction of replications (deterministically sampled per Seed) and
	// reports the aggregated attack-path / choke-point / detection /
	// rotation explanations on OptimizeResult.Explanations. Capture never
	// perturbs the search: scores and decisions are byte-identical with
	// tracing on or off.
	TraceSample float64
	// ProgressSink, when set, receives structured progress events during
	// the search. Telemetry observes the run, it never steers it: results
	// are byte-identical with or without a sink attached.
	ProgressSink ProgressSink
	// Metrics, when set, is filled with counters, gauges and latency
	// histograms during the search, ready for Prometheus scraping.
	// Attaching either ProgressSink or Metrics also populates
	// OptimizeResult.Telemetry with a JSON-ready run report.
	Metrics *MetricsRegistry
}

// BuildTopology resolves a topology selector — the named reference
// plants ("tiered", "powergrid") or a generated meshed grid ("grid:N" /
// "grid:N:R", N substations in R regions) — for tools that drive the
// campaign engine directly (cmd/diversify-trace).
func BuildTopology(sel string) (*topology.Topology, error) { return buildTopology(sel) }

// buildTopology resolves a topology selector: the named reference plants
// or a generated meshed grid ("grid:N" / "grid:N:R", N substations in R
// regions).
func buildTopology(sel string) (*topology.Topology, error) {
	switch sel {
	case "", "tiered":
		return topology.NewTieredSCADA(topology.DefaultTieredSpec()), nil
	case "powergrid":
		return topology.NewPowerGrid(topology.DefaultPowerGridSpec()), nil
	}
	if rest, ok := strings.CutPrefix(sel, "grid:"); ok {
		subsStr, regionsStr, pinned := strings.Cut(rest, ":")
		subs, err := strconv.Atoi(subsStr)
		if err != nil || subs <= 0 {
			return nil, fmt.Errorf("diversify: topology %q: substation count must be a positive integer", sel)
		}
		spec := topology.DefaultMeshedGridSpec(subs)
		if pinned {
			regions, err := strconv.Atoi(regionsStr)
			if err != nil || regions <= 0 {
				return nil, fmt.Errorf("diversify: topology %q: region count must be a positive integer", sel)
			}
			spec.Regions = regions
		}
		return topology.NewMeshedGrid(spec), nil
	}
	return nil, fmt.Errorf("diversify: unknown topology %q (want tiered, powergrid or grid:N[:regions])", sel)
}

// optimizeClasses maps factor names to component classes.
var optimizeClasses = map[string]exploits.Class{
	"OS":        exploits.ClassOS,
	"PLC":       exploits.ClassPLCFirmware,
	"Protocol":  exploits.ClassProtocol,
	"HMI":       exploits.ClassHMISoftware,
	"EngTools":  exploits.ClassEngTools,
	"Historian": exploits.ClassHistorian,
}

// Optimize runs the step-4 placement search: it looks for the assignment
// of catalog variants to nodes that minimizes the chosen indicator under
// the budget, and reports it alongside the undiversified baseline, a
// random placement at the same budget, and the cost-vs-risk Pareto front
// of everything evaluated. Placement is restricted to the monitoring and
// control system proper — hardening the attacker's entry PCs is not a
// defense the paper considers. It is OptimizeContext under a background
// context.
func Optimize(cfg OptimizeConfig) (*OptimizeResult, error) {
	return OptimizeContext(context.Background(), cfg)
}

// OptimizeContext is Optimize under a caller-controlled context:
// cancelling ctx (Ctrl-C, a deadline, a service shutting down) stops
// the search at the next step boundary and returns the best feasible
// candidate found so far, with OptimizeResult.Degraded naming the
// interruption, instead of discarding a long run's progress.
func OptimizeContext(ctx context.Context, cfg OptimizeConfig) (*OptimizeResult, error) {
	topo, err := buildTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	profiles := ThreatProfiles()
	threat := cfg.Threat
	if threat == "" {
		threat = "stuxnet"
	}
	profile, ok := profiles[threat]
	if !ok {
		return nil, fmt.Errorf("diversify: unknown threat %q", threat)
	}
	names := cfg.Classes
	if len(names) == 0 {
		names = []string{"OS", "PLC", "Protocol"}
	}
	var classes []exploits.Class
	for _, n := range names {
		c, ok := optimizeClasses[n]
		if !ok {
			return nil, fmt.Errorf("diversify: unknown component class %q", n)
		}
		classes = append(classes, c)
	}
	axes, err := optimize.ParseAxes(cfg.Objectives)
	if err != nil {
		return nil, err
	}
	var objective optimize.Objective
	switch cfg.Objective {
	case "", "success":
		objective = optimize.MinimizeSuccess
	case "ratio":
		objective = optimize.MinimizeRatio
	case "ttsf":
		objective = optimize.MaximizeTTSF
	case "foothold":
		objective = optimize.MinimizeFoothold
	default:
		return nil, fmt.Errorf("diversify: unknown objective %q (want success, ratio, ttsf or foothold)", cfg.Objective)
	}
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = "greedy"
	}
	opt, err := optimize.ByName(strategy)
	if err != nil {
		return nil, err
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("diversify: Budget must be positive, got %v — with no budget every option is rejected and the search is a no-op", cfg.Budget)
	}
	cat := exploits.StuxnetCatalog()
	filter := func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC }
	options := diversity.EnumerateOptions(topo, cat, classes, filter)
	var rotations []rotation.Spec
	for _, sel := range cfg.Rotations {
		spec, err := rotation.ParseSpec(sel)
		if err != nil {
			return nil, err
		}
		rotations = append(rotations, spec)
	}
	platform, node := cfg.PlatformCost, cfg.NodeCost
	if platform <= 0 {
		platform = 5
	}
	if node <= 0 {
		node = 2
	}
	return optimize.RunWith(ctx, optimize.Problem{
		Topo: topo, Catalog: cat, Profile: profile,
		Options:    options,
		Cost:       diversity.CostModel{PlatformCost: platform, NodeCost: node},
		Budget:     cfg.Budget,
		Objective:  objective,
		Axes:       axes,
		ScreenTop:  cfg.ScreenTop,
		Rotations:  rotations,
		MaxPerZone: cfg.MaxPerZone,
		Horizon:    cfg.HorizonHours,
		Reps:       cfg.Reps, Workers: cfg.Workers, Seed: cfg.Seed,
		Iterations: cfg.Iterations, Population: cfg.Population,
		TraceSample: cfg.TraceSample,
	}, opt, optimize.RunOptions{
		StorePath: cfg.Store,
		Sink:      cfg.ProgressSink,
		Metrics:   cfg.Metrics,
	})
}

// OptimizeRunStats re-exports the runtime bookkeeping carried on
// OptimizeResult.Stats: the run's ledger (logical evaluation counts,
// store traffic, simulated and replayed replications, retries,
// quarantines) and its wall-clock.
type OptimizeRunStats = optimize.RunStats

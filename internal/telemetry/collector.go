package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Report is the JSON run report a Collector distills from the event
// stream — the `Result.Telemetry` payload and the `-telemetry-json`
// file. Wall times make it non-deterministic by design, so it lives
// outside the byte-identity surface (populated only when telemetry is
// attached, omitted from Result JSON otherwise).
type Report struct {
	Strategy       string  `json:"strategy"`
	Best           float64 `json:"best"`
	Degraded       string  `json:"degraded,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Evaluation accounting. Evaluations = scored candidates (cache
	// misses); CacheHitRatio = hits / lookups; WarmStartRatio = the
	// fraction of evaluations served from the durable store instead of
	// fresh simulation.
	Evaluations    int     `json:"evaluations"`
	CacheHits      int     `json:"cache_hits"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	StoreHits      int     `json:"store_hits"`
	StorePuts      int     `json:"store_puts"`
	WarmStarted    int     `json:"warm_started"`
	WarmStartRatio float64 `json:"warm_start_ratio"`
	Replications   int     `json:"replications"`

	// Fault tolerance.
	Retries     int `json:"retries"`
	Quarantined int `json:"quarantined"`

	// Explanations counts the causal trace reports the run produced
	// (zero unless TraceSample was set).
	Explanations int `json:"explanations,omitempty"`

	// Search-shape accounting from the round stream.
	Rounds              int                `json:"rounds"`
	StrategyRounds      map[string]int     `json:"strategy_rounds,omitempty"`
	StrategyWallSeconds map[string]float64 `json:"strategy_wall_seconds,omitempty"`

	// Evaluation latency over simulated batches (store serves and cache
	// hits excluded — they are the ratios above).
	EvalLatency *LatencySummary `json:"eval_latency,omitempty"`
}

// LatencySummary condenses a latency population for the JSON report.
type LatencySummary struct {
	Count       int     `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// Collector is a Sink that aggregates the event stream into a Report
// and, when a Registry is attached, keeps live metrics current for
// /metrics scrapes. Safe for concurrent emission.
type Collector struct {
	reg *Registry

	mu          sync.Mutex
	report      Report        //diversify:guardedby mu
	lastElapsed time.Duration //diversify:guardedby mu
	latSum      float64       //diversify:guardedby mu
	latMax      float64       //diversify:guardedby mu
	latN        int           //diversify:guardedby mu
	finished    bool          //diversify:guardedby mu
}

// NewCollector returns a collector; reg may be nil (report only).
func NewCollector(reg *Registry) *Collector {
	c := &Collector{reg: reg}
	c.report.StrategyRounds = make(map[string]int)
	c.report.StrategyWallSeconds = make(map[string]float64)
	return c
}

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	switch ev := e.(type) {
	case RunStarted:
		c.report.Strategy = ev.Strategy
		if c.reg != nil {
			c.reg.Gauge("diversify_run_workers", "evaluator worker count").Set(float64(ev.Workers))
			c.reg.Gauge("diversify_run_options", "placement options in the search space").Set(float64(ev.Options))
		}
	case RoundCompleted:
		c.report.Rounds++
		c.report.StrategyRounds[ev.Strategy]++
		// Per-strategy wall time: the delta between consecutive round
		// timestamps is billed to the strategy that finished the round.
		d := ev.Elapsed - c.lastElapsed
		if d < 0 {
			d = 0
		}
		c.lastElapsed = ev.Elapsed
		c.report.StrategyWallSeconds[ev.Strategy] += d.Seconds()
		if c.reg != nil {
			c.reg.Counter("diversify_rounds_total{strategy=\""+ev.Strategy+"\"}", "completed search rounds").Inc()
			c.reg.Gauge("diversify_incumbent_value", "best objective value so far").Set(ev.Incumbent)
			c.reg.Gauge("diversify_evaluations", "simulated candidate evaluations").Set(float64(ev.Evaluations))
			c.reg.Gauge("diversify_cache_hits", "memo-cache hits").Set(float64(ev.CacheHits))
			c.reg.Histogram("diversify_round_duration_seconds", "search round duration", RoundDurationBuckets).Observe(d.Seconds())
			if ev.FrontSize > 0 {
				c.reg.Gauge("diversify_front_size", "non-dominated front width").Set(float64(ev.FrontSize))
			}
		}
	case EvaluationBatch:
		// Store serves spend no replications, so they stay out of the
		// latency population; their count is RunFinished.StoreHits.
		if !ev.FromStore {
			s := ev.Duration.Seconds()
			c.latSum += s
			c.latN++
			if s > c.latMax {
				c.latMax = s
			}
			if c.reg != nil {
				c.reg.Histogram("diversify_eval_latency_seconds", "simulated evaluation batch latency", EvalLatencyBuckets).Observe(s)
			}
		}
		if c.reg != nil {
			c.reg.Counter("diversify_eval_batches_total", "evaluation batches (simulated + store-served)").Inc()
		}
	case WorkerQuarantined:
		if c.reg != nil {
			c.reg.Counter("diversify_quarantined_total", "candidates quarantined after repeated panics").Inc()
		}
	case ExplanationReady:
		c.report.Explanations++
		if c.reg != nil {
			c.reg.Counter("diversify_explanations_total", "causal explanation reports produced").Inc()
			c.reg.Gauge("diversify_explanation_records", "records captured by the last explanation replay").Set(float64(ev.Records))
		}
	case RunFinished:
		c.finished = true
		c.report.Strategy = ev.Strategy
		c.report.Best = ev.Best
		c.report.Degraded = ev.Degraded
		c.report.ElapsedSeconds = ev.Elapsed.Seconds()
		c.report.Evaluations = ev.Evaluations
		c.report.CacheHits = ev.CacheHits
		c.report.StoreHits = ev.StoreHits
		c.report.StorePuts = ev.StorePuts
		c.report.Replications = ev.Replications
		c.report.Retries = ev.Retries
		c.report.Quarantined = ev.Quarantined
		if c.reg != nil {
			c.reg.Gauge("diversify_run_elapsed_seconds", "run wall time").Set(ev.Elapsed.Seconds())
			c.reg.Gauge("diversify_best_value", "final best objective value").Set(ev.Best)
		}
	}
	c.mu.Unlock()
}

// Report returns the aggregated run report. Call after the run
// finishes; calling mid-run returns a consistent partial view.
func (c *Collector) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.report
	// Ratios are derived at snapshot time from the authoritative
	// RunFinished totals.
	if lookups := r.Evaluations + r.CacheHits; lookups > 0 {
		r.CacheHitRatio = float64(r.CacheHits) / float64(lookups)
	}
	// Warm starts: evaluations that cost no fresh simulation — the
	// durable-store serves.
	r.WarmStarted = r.StoreHits
	if r.Evaluations > 0 {
		ws := r.WarmStarted
		if ws > r.Evaluations {
			ws = r.Evaluations
		}
		r.WarmStartRatio = float64(ws) / float64(r.Evaluations)
	}
	if c.latN > 0 {
		r.EvalLatency = &LatencySummary{
			Count:       c.latN,
			MeanSeconds: c.latSum / float64(c.latN),
			MaxSeconds:  c.latMax,
		}
	}
	// Copy the maps so the caller's report is stable even if more
	// events arrive (mid-run snapshots).
	r.StrategyRounds = copyIntMap(c.report.StrategyRounds)
	r.StrategyWallSeconds = copyFloatMap(c.report.StrategyWallSeconds)
	return &r
}

// Strategies returns the strategy names seen in the round stream,
// sorted — convenience for report rendering.
func (r *Report) Strategies() []string {
	out := make([]string, 0, len(r.StrategyRounds))
	for k := range r.StrategyRounds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func copyIntMap(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyFloatMap(m map[string]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

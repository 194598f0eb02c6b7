// Package core implements the paper's primary contribution: the
// three-step attack modeling and evaluation approach of Figure 1.
//
//	Step 1 — Attack Modeling: a Scenario wraps an executable attack model
//	  (SAN, attack tree, Bayesian network or the full SCADA campaign
//	  simulator) parameterized by the diversity configuration.
//	Step 2 — DoE & Measurements: a Study crosses the scenario with a DoE
//	  design over component factors and measures the security indicators
//	  by Monte-Carlo replication (parallel, deterministic per seed).
//	Step 3 — Diversity Assessment: ANOVA over the measured indicators
//	  allocates variance to components; the Assessment ranks components
//	  by explained variance, which is the diversification recommendation.
//
// The package also provides the one-at-a-time calibration sensitivity
// harness (the paper's third calibration option) used to check that
// conclusions are stable under ±X% exploit-probability error.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diversify/internal/anova"
	"diversify/internal/des"
	"diversify/internal/doe"
	"diversify/internal/indicators"
	"diversify/internal/rng"
)

// ErrBadStudy reports an invalid study configuration.
var ErrBadStudy = errors.New("core: invalid study")

// Levels maps factor names to the chosen level value for one design run.
type Levels map[string]string

// Scenario is an executable attack model parameterized by factor levels.
// Implementations must be safe for concurrent Evaluate calls (each call
// receives its own RNG stream).
type Scenario interface {
	// Name identifies the scenario in reports.
	Name() string
	// Evaluate runs one replication under the given configuration.
	Evaluate(levels Levels, r *rng.Rand) (indicators.Outcome, error)
}

// FuncScenario adapts a closure to the Scenario interface.
type FuncScenario struct {
	ScenarioName string
	Fn           func(levels Levels, r *rng.Rand) (indicators.Outcome, error)
}

var _ Scenario = FuncScenario{}

// Name returns the scenario name.
func (f FuncScenario) Name() string { return f.ScenarioName }

// Evaluate invokes the wrapped closure.
func (f FuncScenario) Evaluate(levels Levels, r *rng.Rand) (indicators.Outcome, error) {
	return f.Fn(levels, r)
}

// Indicator selects which measured quantity feeds the assessment.
type Indicator string

// Supported indicators. TTA and TTSF are horizon-censored so every
// replication yields a response (a requirement of balanced ANOVA):
// failed attacks report TTA = horizon, undetected attacks TTSF = horizon.
const (
	IndicatorTTA        Indicator = "tta"
	IndicatorTTSF       Indicator = "ttsf"
	IndicatorSuccess    Indicator = "success"
	IndicatorFinalRatio Indicator = "final-ratio"
)

// Study is one complete experiment: scenario × design × replications.
type Study struct {
	Scenario Scenario
	Design   *doe.Design
	Reps     int
	Seed     uint64
	// Workers bounds campaign parallelism (<= 0 → GOMAXPROCS).
	Workers int
}

// Results holds the raw outcomes and per-cell summaries of a study.
type Results struct {
	Design   *doe.Design
	Outcomes [][]indicators.Outcome // [run][rep]
	Reports  []indicators.Report    // per run, 95% level
}

// Run executes the full campaign. Replications are deterministic for a
// given Seed regardless of Workers.
func (s *Study) Run() (*Results, error) {
	if s.Scenario == nil || s.Design == nil {
		return nil, fmt.Errorf("%w: scenario and design are required", ErrBadStudy)
	}
	if err := s.Design.Validate(); err != nil {
		return nil, err
	}
	if s.Reps <= 0 {
		return nil, fmt.Errorf("%w: reps = %d", ErrBadStudy, s.Reps)
	}
	runs := s.Design.NumRuns()
	total := runs * s.Reps
	levelsFor := make([]Levels, runs)
	for i := 0; i < runs; i++ {
		lv := Levels{}
		for j, f := range s.Design.Factors {
			lv[f.Name] = s.Design.Level(i, j)
		}
		levelsFor[i] = lv
	}
	flat, err := des.Replicate(total, s.Workers, s.Seed, func(idx int, r *rng.Rand) (indicators.Outcome, error) {
		run, rep := idx/s.Reps, idx%s.Reps
		out, err := s.Scenario.Evaluate(levelsFor[run], r)
		if err != nil {
			return out, fmt.Errorf("core: run %d rep %d: %w", run, rep, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Results{Design: s.Design, Outcomes: make([][]indicators.Outcome, runs)}
	for run := range res.Outcomes {
		lo, hi := run*s.Reps, (run+1)*s.Reps
		res.Outcomes[run] = flat[lo:hi:hi]
	}
	res.Reports = make([]indicators.Report, runs)
	for run := 0; run < runs; run++ {
		rep, err := indicators.Summarize(res.Outcomes[run], 0.95)
		if err != nil {
			return nil, fmt.Errorf("core: summarizing run %d: %w", run, err)
		}
		res.Reports[run] = rep
	}
	return res, nil
}

// Responses extracts the per-run replicate responses of an indicator in
// the shape anova.Analyze consumes.
func (r *Results) Responses(ind Indicator) ([][]float64, error) {
	out := make([][]float64, len(r.Outcomes))
	for run, reps := range r.Outcomes {
		row := make([]float64, len(reps))
		for i, o := range reps {
			switch ind {
			case IndicatorTTA:
				row[i] = o.CensoredTTA()
			case IndicatorTTSF:
				row[i] = o.CensoredTTSF()
			case IndicatorSuccess:
				row[i] = o.SuccessValue()
			case IndicatorFinalRatio:
				row[i] = o.FinalRatio()
			default:
				return nil, fmt.Errorf("%w: unknown indicator %q", ErrBadStudy, ind)
			}
		}
		out[run] = row
	}
	return out, nil
}

// ANOVA runs the step-3 decomposition for one indicator.
func (r *Results) ANOVA(ind Indicator, opt anova.Options) (*anova.Table, error) {
	resp, err := r.Responses(ind)
	if err != nil {
		return nil, err
	}
	return anova.Analyze(r.Design, resp, opt)
}

// ComponentImpact is one row of the final diversification recommendation.
type ComponentImpact struct {
	Component   string
	Eta2        float64 // max variance explained across assessed indicators
	BestP       float64 // smallest p-value across indicators
	Significant bool    // BestP < 0.05
}

// Assessment is the step-3 output: per-indicator ANOVA tables plus the
// component ranking.
type Assessment struct {
	Tables  map[Indicator]*anova.Table
	Ranking []ComponentImpact
}

// Assess runs ANOVA for the given indicators and ranks components by the
// variance they explain. Interaction terms contribute to the tables but
// not to the per-component ranking.
func (r *Results) Assess(inds []Indicator, opt anova.Options) (*Assessment, error) {
	if len(inds) == 0 {
		return nil, fmt.Errorf("%w: no indicators requested", ErrBadStudy)
	}
	a := &Assessment{Tables: map[Indicator]*anova.Table{}}
	impact := map[string]*ComponentImpact{}
	for _, ind := range inds {
		tbl, err := r.ANOVA(ind, opt)
		if err != nil {
			return nil, fmt.Errorf("core: ANOVA for %q: %w", ind, err)
		}
		a.Tables[ind] = tbl
		for _, row := range tbl.Effects {
			if isInteraction(row.Source) {
				continue
			}
			ci, ok := impact[row.Source]
			if !ok {
				ci = &ComponentImpact{Component: row.Source, BestP: math.Inf(1)}
				impact[row.Source] = ci
			}
			if row.Eta2 > ci.Eta2 {
				ci.Eta2 = row.Eta2
			}
			if !math.IsNaN(row.P) && row.P < ci.BestP {
				ci.BestP = row.P
			}
		}
	}
	for _, ci := range impact {
		ci.Significant = ci.BestP < 0.05
		a.Ranking = append(a.Ranking, *ci)
	}
	sort.Slice(a.Ranking, func(i, j int) bool {
		if a.Ranking[i].Eta2 != a.Ranking[j].Eta2 {
			return a.Ranking[i].Eta2 > a.Ranking[j].Eta2
		}
		return a.Ranking[i].Component < a.Ranking[j].Component
	})
	return a, nil
}

func isInteraction(source string) bool {
	for _, r := range source {
		if r == '×' {
			return true
		}
	}
	return false
}

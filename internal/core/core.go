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
type Scenario interface {
	// Replicate runs one design run under levels: replication i starts
	// from streams[i], on at most workers goroutines (<= 0 →
	// GOMAXPROCS), and the outcomes return in replication order,
	// identical for every worker count.
	Replicate(levels Levels, streams []rng.Rand, workers int) ([]indicators.Outcome, error)
}

// FuncScenario adapts a per-replication closure to the Scenario
// interface.
type FuncScenario func(levels Levels, r *rng.Rand) (indicators.Outcome, error)

// Replicate runs f once per stream on des.Replicate.
func (f FuncScenario) Replicate(levels Levels, streams []rng.Rand, workers int) ([]indicators.Outcome, error) {
	return des.Replicate(streams, workers, func(_ int, r *rng.Rand) (indicators.Outcome, error) {
		return f(levels, r)
	})
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

// Run executes the full campaign: design run i replicates its levels on
// the i-th block of Reps streams split in order from Seed. Replications
// are deterministic for a given Seed regardless of Workers.
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
	streams := des.SplitStreams(s.Seed, runs*s.Reps)
	res := &Results{
		Design:   s.Design,
		Outcomes: make([][]indicators.Outcome, runs),
		Reports:  make([]indicators.Report, runs),
	}
	for run := range res.Outcomes {
		lv := Levels{}
		for j, f := range s.Design.Factors {
			lv[f.Name] = s.Design.Level(run, j)
		}
		outs, err := s.Scenario.Replicate(lv, streams[run*s.Reps:(run+1)*s.Reps], s.Workers)
		if err != nil {
			return nil, fmt.Errorf("core: run %d: %w", run, err)
		}
		res.Outcomes[run] = outs
		if res.Reports[run], err = indicators.Summarize(outs, 0.95); err != nil {
			return nil, fmt.Errorf("core: summarizing run %d: %w", run, err)
		}
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

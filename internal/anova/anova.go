// Package anova implements fixed-effects analysis of variance, step 3 of
// the paper's framework: "we plan to use ANalysis Of VAriance (ANOVA)
// techniques, which make it possible to allocate the variability of the
// security indicators (measured across the different system
// configurations ...) to the component(s) responsible for such
// variability."
//
// Analyze decomposes the variance of responses measured over a balanced
// DoE design into per-factor main effects (and optional two-way
// interactions), F statistics, p-values and η² (variance explained) —
// the quantities that identify which components are worth diversifying.
package anova

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diversify/internal/doe"
	"diversify/internal/stats"
)

// ErrBadInput reports malformed observations.
var ErrBadInput = errors.New("anova: invalid input")

// Row is one source of variation in an ANOVA table.
type Row struct {
	Source string
	DF     int
	SS     float64
	MS     float64
	F      float64
	P      float64
	Eta2   float64 // SS_source / SS_total
}

// Table is a complete ANOVA decomposition.
type Table struct {
	Effects []Row // main effects and (optionally) two-way interactions
	Error   Row
	Total   Row
}

// Ranking returns the effects sorted by explained variance, descending.
func (t *Table) Ranking() []Row {
	out := append([]Row(nil), t.Effects...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SS != out[j].SS {
			return out[i].SS > out[j].SS
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// String renders the table.
func (t *Table) String() string {
	s := fmt.Sprintf("%-16s %4s %12s %12s %8s %8s %6s\n", "source", "df", "SS", "MS", "F", "p", "eta2")
	for _, r := range t.Effects {
		s += fmt.Sprintf("%-16s %4d %12.4f %12.4f %8.3f %8.4f %6.3f\n",
			r.Source, r.DF, r.SS, r.MS, r.F, r.P, r.Eta2)
	}
	s += fmt.Sprintf("%-16s %4d %12.4f %12.4f\n", "error", t.Error.DF, t.Error.SS, t.Error.MS)
	s += fmt.Sprintf("%-16s %4d %12.4f\n", "total", t.Total.DF, t.Total.SS)
	return s
}

// Options tunes the analysis.
type Options struct {
	// Interactions includes all two-way interaction terms.
	Interactions bool
}

// Analyze runs fixed-effects ANOVA of responses over a balanced design.
// responses[i] holds the replicate measurements of design run i; every
// run needs the same replicate count (>= 1; F/p require the pooled error
// to have positive degrees of freedom, i.e. replication or an incomplete
// model).
func Analyze(d *doe.Design, responses [][]float64, opt Options) (*Table, error) {
	if d == nil || len(responses) != d.NumRuns() {
		return nil, fmt.Errorf("%w: responses for %d runs, design has %d", ErrBadInput, len(responses), d.NumRuns())
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !d.IsBalanced() {
		return nil, fmt.Errorf("%w: design is not balanced", ErrBadInput)
	}
	reps := len(responses[0])
	if reps == 0 {
		return nil, fmt.Errorf("%w: empty response row", ErrBadInput)
	}
	for i, r := range responses {
		if len(r) != reps {
			return nil, fmt.Errorf("%w: run %d has %d replicates, want %d", ErrBadInput, i, len(r), reps)
		}
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: run %d contains non-finite response", ErrBadInput, i)
			}
		}
	}
	n := d.NumRuns() * reps
	grand := 0.0
	for _, row := range responses {
		for _, v := range row {
			grand += v
		}
	}
	grand /= float64(n)

	ssTotal := 0.0
	for _, row := range responses {
		for _, v := range row {
			ssTotal += (v - grand) * (v - grand)
		}
	}

	// Level means per factor.
	k := len(d.Factors)
	levelSum := make([][]float64, k)
	levelCnt := make([][]int, k)
	for j, f := range d.Factors {
		levelSum[j] = make([]float64, len(f.Levels))
		levelCnt[j] = make([]int, len(f.Levels))
	}
	for i, run := range d.Runs {
		rowSum := 0.0
		for _, v := range responses[i] {
			rowSum += v
		}
		for j, lv := range run {
			levelSum[j][lv] += rowSum
			levelCnt[j][lv] += reps
		}
	}
	levelMean := make([][]float64, k)
	for j := range levelSum {
		levelMean[j] = make([]float64, len(levelSum[j]))
		for l := range levelSum[j] {
			if levelCnt[j][l] > 0 {
				levelMean[j][l] = levelSum[j][l] / float64(levelCnt[j][l])
			}
		}
	}

	var effects []Row
	ssModel := 0.0
	dfModel := 0
	for j, f := range d.Factors {
		ss := 0.0
		for l := range f.Levels {
			diff := levelMean[j][l] - grand
			ss += float64(levelCnt[j][l]) * diff * diff
		}
		df := len(f.Levels) - 1
		effects = append(effects, Row{Source: f.Name, DF: df, SS: ss})
		ssModel += ss
		dfModel += df
	}

	if opt.Interactions {
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				type cell struct {
					sum float64
					cnt int
				}
				cells := map[[2]int]*cell{}
				for i, run := range d.Runs {
					key := [2]int{run[a], run[b]}
					c, ok := cells[key]
					if !ok {
						c = &cell{}
						cells[key] = c
					}
					for _, v := range responses[i] {
						c.sum += v
						c.cnt++
					}
				}
				ss := 0.0
				for key, c := range cells {
					if c.cnt == 0 {
						continue
					}
					mean := c.sum / float64(c.cnt)
					dev := mean - levelMean[a][key[0]] - levelMean[b][key[1]] + grand
					ss += float64(c.cnt) * dev * dev
				}
				df := (len(d.Factors[a].Levels) - 1) * (len(d.Factors[b].Levels) - 1)
				effects = append(effects, Row{
					Source: d.Factors[a].Name + "×" + d.Factors[b].Name,
					DF:     df, SS: ss,
				})
				ssModel += ss
				dfModel += df
			}
		}
	}

	ssError := ssTotal - ssModel
	if ssError < 0 {
		ssError = 0 // numeric guard; exact saturated fits can dip below zero
	}
	dfError := (n - 1) - dfModel
	tbl := &Table{
		Error: Row{Source: "error", DF: dfError, SS: ssError},
		Total: Row{Source: "total", DF: n - 1, SS: ssTotal},
	}
	var msError float64
	if dfError > 0 {
		msError = ssError / float64(dfError)
		tbl.Error.MS = msError
	}
	for i := range effects {
		e := &effects[i]
		if e.DF > 0 {
			e.MS = e.SS / float64(e.DF)
		}
		if ssTotal > 0 {
			e.Eta2 = e.SS / ssTotal
		}
		if msError > 0 && e.DF > 0 {
			e.F = e.MS / msError
			p, err := stats.FSurvival(e.F, float64(e.DF), float64(dfError))
			if err == nil {
				e.P = p
			} else {
				e.P = math.NaN()
			}
		} else {
			e.F = math.NaN()
			e.P = math.NaN()
		}
	}
	tbl.Effects = effects
	return tbl, nil
}

// Effect is a two-level factorial effect estimate (mean(hi) − mean(lo)).
type Effect struct {
	Factor   string
	Estimate float64
}

// Effects computes main-effect estimates for a two-level design, the
// quantity screening designs (E5) compare across design sizes.
func Effects(d *doe.Design, responses [][]float64) ([]Effect, error) {
	if d == nil || len(responses) != d.NumRuns() {
		return nil, fmt.Errorf("%w: responses/design mismatch", ErrBadInput)
	}
	for _, f := range d.Factors {
		if len(f.Levels) != 2 {
			return nil, fmt.Errorf("%w: factor %q is not two-level", ErrBadInput, f.Name)
		}
	}
	out := make([]Effect, len(d.Factors))
	for j, f := range d.Factors {
		sum := [2]float64{}
		cnt := [2]int{}
		for i, run := range d.Runs {
			for _, v := range responses[i] {
				sum[run[j]] += v
				cnt[run[j]]++
			}
		}
		if cnt[0] == 0 || cnt[1] == 0 {
			return nil, fmt.Errorf("%w: factor %q has an unobserved level", ErrBadInput, f.Name)
		}
		out[j] = Effect{Factor: f.Name, Estimate: sum[1]/float64(cnt[1]) - sum[0]/float64(cnt[0])}
	}
	return out, nil
}

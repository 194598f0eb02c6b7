// Package indicators defines the security indicators the paper proposes
// in §II and their estimators over Monte-Carlo replications:
//
//	(i)   Time-To-Attack — "the time between the beginning and completion
//	      of an attack";
//	(ii)  Time-To-Security-Failure — "the time between the beginning of
//	      the attack and the perceived attack manifestation" (Madan et
//	      al.);
//	(iii) compromised ratio — "the number of compromised components at
//	      time t with respect to the total number of components".
//
// A scenario replication produces an Outcome; estimator functions reduce
// slices of Outcomes to point estimates with confidence intervals.
package indicators

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diversify/internal/stats"
)

// ErrNoData reports an estimator called on an empty or degenerate sample.
var ErrNoData = errors.New("indicators: no data")

// Point is one sample of a time series.
type Point struct {
	T     float64
	Value float64
}

// Outcome is the result of one attack-campaign replication.
type Outcome struct {
	// Success reports whether the attack reached its objective within
	// the horizon; TTA is the completion time (valid when Success).
	Success bool
	TTA     float64
	// Detected reports whether defenders perceived the attack; TTSF is
	// the first-detection virtual time (valid when Detected).
	Detected bool
	TTSF     float64
	// Detections counts every detection event over the replication —
	// physical manifestations, flagged C2 beacons, flagged exfiltrations
	// — not only the first (which TTSF timestamps).
	Detections int
	// Horizon is the replication's observation window.
	Horizon float64
	// Compromised is the compromised-ratio time series (nondecreasing
	// steps in [0,1], times ascending; a node is charted the first time
	// it is compromised — dynamic-diversity cures and re-infections do
	// not re-chart it, keeping the series monotone). Producers that
	// recycle their internal timeline hand out a shared view; Clone
	// detaches it.
	Compromised []Point

	// Dynamic-diversity (moving-target rotation) measurements; all zero
	// for a static deployment except FootholdTime and Contained, which
	// are meaningful everywhere.

	// Rotations counts variant switches performed by the rotation policy
	// over the replication; RotationCost is their accumulated cost in
	// cost-model units.
	Rotations    int
	RotationCost float64
	// Reinfections counts compromises of nodes that had already been
	// compromised and were cured by a rotation — the re-infection churn
	// dynamic-diversity studies report.
	Reinfections int
	// FootholdTime is the aggregate intruder dwell in node-hours: the
	// integral over the horizon of the number of simultaneously
	// compromised nodes. For a static deployment every compromised node
	// contributes (horizon − its compromise time), as nothing ever
	// evicts the intruder; rotation cures cut contributions short.
	// Contained reports whether the network ended the replication fully
	// clean.
	FootholdTime float64
	Contained    bool
}

// Clone returns an Outcome safe to retain after the producing campaign
// is Reset: the Compromised series is copied out of campaign-owned
// storage.
func (o Outcome) Clone() Outcome {
	if o.Compromised != nil {
		// make-then-append keeps an empty series non-nil, so a cloned
		// zero-compromise outcome stays value-identical to the original.
		o.Compromised = append(make([]Point, 0, len(o.Compromised)), o.Compromised...)
	}
	return o
}

// DwellTime returns how long the intruder operated before being
// perceived: the first-detection time minus the first-compromise time,
// with undetected replications censored at the horizon. Replications
// that never compromised anything return 0 — there was no intruder to
// catch. This is the per-replication "detection speed" measurement the
// multi-objective placement search minimizes.
func (o Outcome) DwellTime() float64 {
	if len(o.Compromised) == 0 {
		return 0
	}
	start := o.Compromised[0].T
	if o.Detected {
		return o.TTSF - start
	}
	return o.Horizon - start
}

// The per-replication responses below are the one spelling of each
// indicator that the DoE responses (core.Results.Responses) and the
// optimizer's measurements share; each is small enough to inline.

// SuccessValue is the attack-success indicator: 1 when the attack reached
// its objective within the horizon, else 0. Its mean over replications
// is the success probability.
func (o Outcome) SuccessValue() float64 { return b01(o.Success) }

// DetectedValue is the detection indicator: 1 when defenders perceived
// the attack, else 0.
func (o Outcome) DetectedValue() float64 { return b01(o.Detected) }

// CensoredTTA is the Time-To-Attack, censored at the horizon when the
// attack did not succeed.
func (o Outcome) CensoredTTA() float64 {
	if o.Success {
		return o.TTA
	}
	return o.Horizon
}

// CensoredTTSF is the Time-To-Security-Failure, censored at the horizon
// when the attack went undetected.
func (o Outcome) CensoredTTSF() float64 {
	if o.Detected {
		return o.TTSF
	}
	return o.Horizon
}

// FinalRatio is the compromised ratio at the horizon.
func (o Outcome) FinalRatio() float64 { return RatioAt(o.Compromised, o.Horizon) }

func b01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SuccessProbability returns the attack-success fraction with a Wilson
// confidence interval at the given level.
func SuccessProbability(outcomes []Outcome, level float64) (stats.Interval, error) {
	if len(outcomes) == 0 {
		return stats.Interval{}, ErrNoData
	}
	succ := 0
	for _, o := range outcomes {
		if o.Success {
			succ++
		}
	}
	return stats.ProportionCI(succ, len(outcomes), level)
}

// TTASummary describes Time-To-Attack over the successful replications
// only (the conventional conditional-on-success reading). It returns
// ErrNoData when no replication succeeded.
func TTASummary(outcomes []Outcome) (stats.Summary, error) {
	times := make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		if o.Success {
			times = append(times, o.TTA)
		}
	}
	if len(times) == 0 {
		return stats.Summary{}, fmt.Errorf("%w: no successful attacks", ErrNoData)
	}
	return stats.Describe(times), nil
}

// TTSFSummary describes Time-To-Security-Failure over detected
// replications. Undetected attacks are censored at the horizon; setting
// includeCensored counts them at the horizon value (a conservative lower
// bound commonly reported alongside the detected-only mean).
func TTSFSummary(outcomes []Outcome, includeCensored bool) (stats.Summary, error) {
	times := make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		switch {
		case o.Detected:
			times = append(times, o.TTSF)
		case includeCensored:
			times = append(times, o.Horizon)
		}
	}
	if len(times) == 0 {
		return stats.Summary{}, fmt.Errorf("%w: no detections", ErrNoData)
	}
	return stats.Describe(times), nil
}

// DetectionRate returns the fraction of replications in which defenders
// perceived the attack, with a Wilson interval.
func DetectionRate(outcomes []Outcome, level float64) (stats.Interval, error) {
	if len(outcomes) == 0 {
		return stats.Interval{}, ErrNoData
	}
	det := 0
	for _, o := range outcomes {
		if o.Detected {
			det++
		}
	}
	return stats.ProportionCI(det, len(outcomes), level)
}

// RatioAt evaluates a compromised-ratio step series at time t (the value
// of the last point at or before t; 0 before the first point).
func RatioAt(series []Point, t float64) float64 {
	v := 0.0
	for _, p := range series {
		if p.T > t {
			break
		}
		v = p.Value
	}
	return v
}

// ValidateSeries checks the structural invariants of a compromised-ratio
// series: times ascending, values in [0,1] and nondecreasing.
func ValidateSeries(series []Point) error {
	for i, p := range series {
		if p.Value < -1e-12 || p.Value > 1+1e-12 || math.IsNaN(p.Value) {
			return fmt.Errorf("indicators: point %d value %v outside [0,1]", i, p.Value)
		}
		if i > 0 {
			if p.T < series[i-1].T {
				return fmt.Errorf("indicators: series times not ascending at %d", i)
			}
			if p.Value < series[i-1].Value-1e-12 {
				return fmt.Errorf("indicators: compromised ratio decreased at %d", i)
			}
		}
	}
	return nil
}

// Report is the standard per-configuration indicator block the campaign
// runner emits for tables.
type Report struct {
	N           int
	PSuccess    stats.Interval
	PDetected   stats.Interval
	TTA         stats.Summary
	TTSF        stats.Summary
	FinalRatio  float64 // mean compromised ratio at the horizon
	MedianRatio float64 // median across replications at the horizon
}

// Summarize computes a Report at the given confidence level.
func Summarize(outcomes []Outcome, level float64) (Report, error) {
	if len(outcomes) == 0 {
		return Report{}, ErrNoData
	}
	rep := Report{N: len(outcomes)}
	var err error
	rep.PSuccess, err = SuccessProbability(outcomes, level)
	if err != nil {
		return Report{}, err
	}
	rep.PDetected, err = DetectionRate(outcomes, level)
	if err != nil {
		return Report{}, err
	}
	// TTA/TTSF may legitimately be empty (no successes / no detections).
	if s, err := TTASummary(outcomes); err == nil {
		rep.TTA = s
	}
	if s, err := TTSFSummary(outcomes, false); err == nil {
		rep.TTSF = s
	}
	finals := make([]float64, 0, len(outcomes))
	sum := 0.0
	for _, o := range outcomes {
		v := o.FinalRatio()
		finals = append(finals, v)
		sum += v
	}
	rep.FinalRatio = sum / float64(len(outcomes))
	sort.Float64s(finals)
	rep.MedianRatio = finals[len(finals)/2]
	return rep, nil
}

package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n−1 denominator)
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
	P10      float64
	P90      float64
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN if n < 2),
// computed with Welford's algorithm for numerical stability.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	mean, m2 := 0.0, 0.0
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	return m2 / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// quantileSorted computes the quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Describe computes the full Summary of xs. It returns a zero Summary for
// empty input.
func Describe(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		Variance: Variance(xs),
		StdDev:   StdDev(xs),
		Min:      sorted[0],
		Max:      sorted[len(sorted)-1],
		Median:   quantileSorted(sorted, 0.5),
		P10:      quantileSorted(sorted, 0.10),
		P90:      quantileSorted(sorted, 0.90),
	}
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point float64
	Lo    float64
	Hi    float64
	Level float64 // e.g. 0.95
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%.0f%%)", iv.Point, iv.Lo, iv.Hi, iv.Level*100)
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// MeanCI returns the Student-t confidence interval for the mean of xs at
// the given confidence level (e.g. 0.95). It requires n >= 2.
func MeanCI(xs []float64, level float64) (Interval, error) {
	if len(xs) < 2 {
		return Interval{}, fmt.Errorf("stats: MeanCI needs at least 2 samples, got %d", len(xs))
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1): %w", level, ErrDomain)
	}
	n := float64(len(xs))
	mean := Mean(xs)
	se := StdDev(xs) / math.Sqrt(n)
	tcrit, err := StudentTQuantile(1-(1-level)/2, n-1)
	if err != nil {
		return Interval{}, err
	}
	return Interval{Point: mean, Lo: mean - tcrit*se, Hi: mean + tcrit*se, Level: level}, nil
}

// ProportionCI returns the Wilson score interval for a binomial proportion
// with successes out of n trials at the given level.
func ProportionCI(successes, n int, level float64) (Interval, error) {
	if n <= 0 {
		return Interval{}, fmt.Errorf("stats: ProportionCI needs n > 0, got %d", n)
	}
	if successes < 0 || successes > n {
		return Interval{}, fmt.Errorf("stats: successes %d outside [0,%d]: %w", successes, n, ErrDomain)
	}
	z, err := NormalQuantile(1 - (1-level)/2)
	if err != nil {
		return Interval{}, err
	}
	nf := float64(n)
	p := float64(successes) / nf
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	return Interval{Point: p, Lo: math.Max(0, center-half), Hi: math.Min(1, center+half), Level: level}, nil
}

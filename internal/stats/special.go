// Package stats provides the statistical machinery for the framework:
// descriptive statistics over replication outputs, confidence intervals,
// and the special functions needed to compute p-values for ANOVA
// (regularized incomplete beta, Student-t / F / normal CDFs).
//
// All routines are pure functions over float64 slices; none of them mutate
// their inputs unless explicitly documented.
package stats

import (
	"errors"
	"math"
)

// ErrDomain reports an argument outside a function's mathematical domain.
var ErrDomain = errors.New("stats: argument outside domain")

const (
	betaMaxIter = 300
	betaEps     = 1e-14
)

// LogGamma returns ln Γ(x) for x > 0.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// LogBeta returns ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b).
func LogBeta(a, b float64) float64 {
	return LogGamma(a) + LogGamma(b) - LogGamma(a+b)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1], evaluated with Lentz's continued fraction.
func RegIncBeta(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x) {
		return 0, ErrDomain
	}
	switch x {
	case 0:
		return 0, nil
	case 1:
		return 1, nil
	}
	// Use the symmetry relation to keep the continued fraction convergent.
	if x > (a+1)/(a+b+2) {
		v, err := RegIncBeta(b, a, 1-x)
		return 1 - v, err
	}
	lnFront := a*math.Log(x) + b*math.Log(1-x) - math.Log(a) - LogBeta(a, b)
	front := math.Exp(lnFront)
	// Modified Lentz algorithm for the continued fraction.
	const tiny = 1e-30
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= betaMaxIter; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x /
				((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -(a + float64(m)) * (a + b + float64(m)) * x /
				((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		delta := c * d
		f *= delta
		if math.Abs(delta-1) < betaEps {
			return front * (f - 1), nil
		}
	}
	return front * (f - 1), nil // best effort after max iterations
}

// NormalCDF returns P(Z <= z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z such that NormalCDF(z) = p, using the
// Acklam rational approximation refined by one Halley step. p must be in
// (0, 1).
func NormalQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return 0, ErrDomain
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x, nil
}

// StudentTCDF returns P(T <= t) for Student's t with df degrees of freedom.
func StudentTCDF(t float64, df float64) (float64, error) {
	if df <= 0 {
		return 0, ErrDomain
	}
	if math.IsInf(t, 1) {
		return 1, nil
	}
	if math.IsInf(t, -1) {
		return 0, nil
	}
	x := df / (df + t*t)
	ib, err := RegIncBeta(df/2, 0.5, x)
	if err != nil {
		return 0, err
	}
	if t >= 0 {
		return 1 - ib/2, nil
	}
	return ib / 2, nil
}

// StudentTQuantile returns the t such that StudentTCDF(t, df) = p, via
// bisection (monotone CDF). p must be in (0, 1).
func StudentTQuantile(p, df float64) (float64, error) {
	if p <= 0 || p >= 1 || df <= 0 {
		return 0, ErrDomain
	}
	lo, hi := -1e6, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		v, err := StudentTCDF(mid, df)
		if err != nil {
			return 0, err
		}
		if v < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// FCDF returns P(F <= f) for the F distribution with (d1, d2) degrees of
// freedom.
func FCDF(f, d1, d2 float64) (float64, error) {
	if d1 <= 0 || d2 <= 0 {
		return 0, ErrDomain
	}
	if f <= 0 {
		return 0, nil
	}
	x := d1 * f / (d1*f + d2)
	return RegIncBeta(d1/2, d2/2, x)
}

// FSurvival returns P(F > f), the p-value of an observed F statistic.
func FSurvival(f, d1, d2 float64) (float64, error) {
	c, err := FCDF(f, d1, d2)
	if err != nil {
		return 0, err
	}
	return 1 - c, nil
}

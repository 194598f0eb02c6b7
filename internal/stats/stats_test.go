package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"diversify/internal/rng"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, "mean", Mean(xs), 5, 1e-12)
	almost(t, "variance", Variance(xs), 32.0/7.0, 1e-12)
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single sample should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	almost(t, "median", quantileSorted(xs, 0.5), 3, 1e-12)
	almost(t, "q0", quantileSorted(xs, 0), 1, 1e-12)
	almost(t, "q1", quantileSorted(xs, 1), 5, 1e-12)
	almost(t, "q0.25", quantileSorted(xs, 0.25), 2, 1e-12)
	// Describe sorts a copy: its input must not be reordered.
	unsorted := []float64{5, 1, 3}
	Describe(unsorted)
	if unsorted[0] != 5 || unsorted[2] != 3 {
		t.Fatal("Describe mutated its input")
	}
}

func TestDescribe(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	s := Describe(xs)
	if s.N != 4 || s.Min != 10 || s.Max != 40 {
		t.Fatalf("Describe basic fields wrong: %+v", s)
	}
	almost(t, "median", s.Median, 25, 1e-12)
	almost(t, "mean", s.Mean, 25, 1e-12)
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v, err := RegIncBeta(1, 1, x)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "I_x(1,1)", v, x, 1e-10)
	}
	// I_0.5(a,a) = 0.5 by symmetry.
	for _, a := range []float64{0.5, 2, 7.5} {
		v, err := RegIncBeta(a, a, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "I_0.5(a,a)", v, 0.5, 1e-10)
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.1, 0.4, 0.9} {
		v, err := RegIncBeta(2, 2, x)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "I_x(2,2)", v, 3*x*x-2*x*x*x, 1e-10)
	}
}

func TestRegIncBetaDomain(t *testing.T) {
	if _, err := RegIncBeta(-1, 1, 0.5); err == nil {
		t.Fatal("expected domain error for a<0")
	}
	if _, err := RegIncBeta(1, 1, 1.5); err == nil {
		t.Fatal("expected domain error for x>1")
	}
}

func TestNormalCDF(t *testing.T) {
	almost(t, "Phi(0)", NormalCDF(0), 0.5, 1e-12)
	almost(t, "Phi(1.96)", NormalCDF(1.959963985), 0.975, 1e-6)
	almost(t, "Phi(-1)", NormalCDF(-1), 0.158655254, 1e-6)
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.3, 0.5, 0.8, 0.975, 0.999} {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "Phi(Phi^-1(p))", NormalCDF(z), p, 1e-9)
	}
	if _, err := NormalQuantile(0); err == nil {
		t.Fatal("NormalQuantile(0) should error")
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// df=1 is the Cauchy distribution: CDF(t) = 1/2 + atan(t)/pi.
	for _, x := range []float64{-3, -1, 0, 0.5, 2} {
		v, err := StudentTCDF(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "T1 CDF", v, 0.5+math.Atan(x)/math.Pi, 1e-9)
	}
	// Large df approaches standard normal.
	v, err := StudentTCDF(1.2, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "T_inf CDF", v, NormalCDF(1.2), 1e-4)
}

func TestStudentTQuantile(t *testing.T) {
	// Classic table value: t_{0.975, 10} = 2.2281.
	q, err := StudentTQuantile(0.975, 10)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "t_{0.975,10}", q, 2.2281, 1e-3)
}

func TestFCDFKnownValues(t *testing.T) {
	// F(d1=1,d2=d): P(F <= f) = P(|T_d| <= sqrt(f)) = 2*CDF_t(sqrt(f)) - 1.
	fv := 4.0
	df := 7.0
	want, err := StudentTCDF(math.Sqrt(fv), df)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FCDF(fv, 1, df)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "F(1,7) CDF", got, 2*want-1, 1e-9)
	// Critical value F_{0.95}(2, 10) ≈ 4.10.
	p, err := FSurvival(4.10, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "F surv at crit", p, 0.05, 0.002)
}

func TestMeanCICoverage(t *testing.T) {
	// Property: a 90% CI should cover the true mean ~90% of the time.
	r := rng.New(123)
	const trials, n, mu = 600, 20, 4.0
	covered := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = r.Normal(mu, 2)
		}
		iv, err := MeanCI(xs, 0.90)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(mu) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.86 || rate > 0.94 {
		t.Fatalf("90%% CI coverage = %v, want ~0.90", rate)
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Fatal("MeanCI with 1 sample should error")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Fatal("MeanCI with bad level should error")
	}
}

func TestProportionCI(t *testing.T) {
	iv, err := ProportionCI(50, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "point", iv.Point, 0.5, 1e-12)
	if iv.Lo > 0.5 || iv.Hi < 0.5 || iv.Lo < 0.39 || iv.Hi > 0.61 {
		t.Fatalf("Wilson interval looks wrong: %+v", iv)
	}
	// Edge cases must stay within [0,1].
	iv, err = ProportionCI(0, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 0 {
		t.Fatalf("lower bound below zero: %+v", iv)
	}
	if _, err := ProportionCI(5, 0, 0.95); err == nil {
		t.Fatal("n=0 should error")
	}
}

// Property: CDFs are monotone nondecreasing and bounded in [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint8, x1, x2 float64) bool {
		a := float64(aRaw%50)/5 + 0.2
		b := float64(bRaw%50)/5 + 0.2
		x1 = math.Abs(math.Mod(x1, 1))
		x2 = math.Abs(math.Mod(x2, 1))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		v1, err1 := RegIncBeta(a, b, x1)
		v2, err2 := RegIncBeta(a, b, x2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 >= -1e-12 && v2 <= 1+1e-12 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		slices.Sort(xs)
		return quantileSorted(xs, q1) <= quantileSorted(xs, q2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRegIncBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RegIncBeta(5, 7, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescribe(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Describe(xs)
	}
}

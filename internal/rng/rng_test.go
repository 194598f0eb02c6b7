package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicSequence(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: generators with same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("zero-seeded generator looks degenerate: only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Errorf("bucket %d: count %d deviates more than 6%% from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other and from the parent stream.
	match12, matchP1 := 0, 0
	p := New(99)
	p.Uint64()
	p.Uint64()
	p.Uint64()
	p.Uint64() // advance past the split draws
	for i := 0; i < 200; i++ {
		v1, v2 := c1.Uint64(), c2.Uint64()
		if v1 == v2 {
			match12++
		}
		if v1 == p.Uint64() {
			matchP1++
		}
	}
	if match12 > 0 || matchP1 > 0 {
		t.Fatalf("split streams overlap: child/child matches=%d child/parent matches=%d", match12, matchP1)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split()
	b := New(5).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := New(13)
	const rate, n = 2.5, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const mu, sigma, n = 5.0, 2.0, 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(mu, sigma)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-mu) > 0.03 {
		t.Errorf("normal mean = %v, want ~%v", mean, mu)
	}
	if math.Abs(variance-sigma*sigma) > 0.1 {
		t.Errorf("normal variance = %v, want ~%v", variance, sigma*sigma)
	}
}

func TestWeibullMean(t *testing.T) {
	r := New(19)
	d := Weibull{Shape: 1.5, Scale: 3}
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	if got, want := sum/n, d.Mean(); math.Abs(got-want) > 0.05 {
		t.Fatalf("weibull sample mean %v, analytic mean %v", got, want)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(23)
	const p, n = 0.25, 100000
	sum := 0
	for i := 0; i < n; i++ {
		v := r.Geometric(p)
		if v < 0 {
			t.Fatalf("negative geometric sample %d", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean %v, want ~%v", mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(29)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(31)
	for _, mean := range []float64{0.5, 4, 50} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) sample mean %v", mean, got)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(37)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(41)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bool(%v) frequency %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(43)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestTriangularBounds(t *testing.T) {
	r := New(47)
	for i := 0; i < 10000; i++ {
		v := r.Triangular(1, 2, 5)
		if v < 1 || v > 5 {
			t.Fatalf("Triangular(1,2,5) = %v out of bounds", v)
		}
	}
}

// Property: distribution sample means converge to the declared Mean().
func TestDistMeansProperty(t *testing.T) {
	dists := []Dist{
		Exponential{Rate: 0.7},
		Uniform{Lo: 2, Hi: 8},
		Normal{Mu: 10, Sigma: 1},
		LogNormal{Mu: 0.5, Sigma: 0.4},
		Weibull{Shape: 2, Scale: 4},
		Triangular{Lo: 0, Mode: 1, Hi: 3},
		Deterministic{Value: 3.5},
		Erlang{K: 4, Rate: 2},
		Scaled{Base: Exponential{Rate: 1}, Factor: 2.5},
	}
	r := New(53)
	for _, d := range dists {
		const n = 120000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += d.Sample(r)
		}
		got := sum / n
		want := d.Mean()
		tol := 0.03*math.Abs(want) + 0.02
		if math.Abs(got-want) > tol {
			t.Errorf("%s: sample mean %v, declared mean %v", d, got, want)
		}
	}
}

// Property (testing/quick): Intn always lands in range for arbitrary seeds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): same seed always reproduces the same prefix.
func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(1.5)
	}
	_ = sink
}

// Uniform must reject inverted and NaN bounds like every other
// distribution rejects invalid parameters, instead of silently returning
// draws outside [Lo, Hi); the degenerate interval stays legal.
func TestUniformInvalidBoundsPanic(t *testing.T) {
	r := New(9)
	for _, d := range []Uniform{
		{Lo: 5, Hi: 2},
		{Lo: math.NaN(), Hi: 1},
		{Lo: 0, Hi: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on invalid bounds", d)
				}
			}()
			d.Sample(r)
		}()
	}
	if got := (Uniform{Lo: 3, Hi: 3}).Sample(r); got != 3 {
		t.Errorf("degenerate Uniform sampled %v, want 3", got)
	}
}

// Digest must not advance the stream, must be a pure function of the
// state, and must differ across states.
func TestDigestNonAdvancing(t *testing.T) {
	r := New(7)
	d1 := r.Digest()
	if r.Digest() != d1 {
		t.Fatal("Digest not idempotent")
	}
	plain := New(7)
	for i := 0; i < 8; i++ {
		if got, want := r.Uint64(), plain.Uint64(); got != want {
			t.Fatalf("draw %d diverged after Digest: %d != %d", i, got, want)
		}
	}
	if r.Digest() == d1 {
		t.Fatal("Digest unchanged after the state advanced")
	}
	if New(8).Digest() == d1 {
		t.Fatal("different seeds share a digest")
	}
}

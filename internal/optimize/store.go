package optimize

import (
	"fmt"

	"diversify/internal/digest"
	"diversify/internal/evalstore"
	"diversify/internal/malware"
	"diversify/internal/topology"
)

// evalSpecDigest hashes everything OUTSIDE the candidate that shapes an
// evaluation's raw measurements: the exploit catalog, the threat
// profile, the horizon, the replication count and seed (the common
// random number streams) and the firewall override. The topology is
// deliberately left out (it is its own key word), and so are the cost
// model, budget, objective, axes and search knobs — those shape what
// the optimizer does with measurements, not the measurements themselves,
// which is exactly why a re-optimization under a tweaked budget or
// objective can warm-start from the store.
//
// The inputs say what was asked, not how the simulator answers, so the
// digest also folds in the stale-science canary (runCanary): a store
// written by an engine that measures differently starts cold instead of
// serving its measurements.
func evalSpecDigest(p *Problem) (uint64, error) {
	d := digest.New()
	d.Str("diversify/evalspec/v1")
	d.U64(p.Catalog.Fingerprint())
	digestProfile(&d, p)
	d.F64(p.Horizon)
	d.U64(uint64(p.Reps))
	d.U64(p.Seed)
	d.Str(string(p.FirewallVariant))
	canary, err := runCanary(p)
	if err != nil {
		return 0, err
	}
	for _, m := range canary {
		for _, v := range m {
			d.F64(v)
		}
	}
	return d.Sum(), nil
}

// The stale-science canary: a fixed, tiny, seeded evaluation on the
// reference tiered plant (about two dozen nodes) under the problem's
// catalog, profile and firewall override. It costs about a millisecond
// and runs only when a store is attached.
const (
	canaryReps        = 4
	canaryHorizon     = 720
	defaultCanarySeed = 0xC4A21
)

// runCanary returns the canary's per-replication measurement vectors.
func runCanary(p *Problem) ([]evalstore.Measurements, error) {
	seed := p.canarySeed
	if seed == 0 {
		seed = defaultCanarySeed
	}
	outs, err := malware.Evaluate(malware.EvalSpec{
		Config: malware.Config{
			Topo: topology.NewTieredSCADA(topology.DefaultTieredSpec()), Catalog: p.Catalog,
			Profile: p.Profile, FirewallVariant: p.FirewallVariant,
		},
		Horizon: canaryHorizon, Reps: canaryReps, Workers: 1, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("stale-science canary: %w", err)
	}
	meas := make([]evalstore.Measurements, len(outs))
	for i, out := range outs {
		meas[i] = measure(out)
	}
	return meas, nil
}

// digestProfile folds the malware profile in. Distributions contribute
// through their stable String() forms (every rng.Dist implementation
// prints its parameters deterministically).
func digestProfile(d *digest.Hash, p *Problem) {
	pr := &p.Profile
	d.Str(pr.Name)
	d.U64(uint64(pr.Objective))
	d.U64(uint64(len(pr.EntryKinds)))
	for _, k := range pr.EntryKinds {
		d.U64(uint64(k))
	}
	d.F64(pr.SeedPeriod)
	d.U64(uint64(pr.SeedCount))
	d.F64(pr.PropagationPeriod)
	d.F64(pr.RootRetryPeriod)
	d.U64(uint64(pr.MaxStageAttempts))
	d.F64(pr.C2BeaconPeriod)
	d.F64(pr.BeaconDetectBase)
	d.F64(pr.SpoofProb)
	for _, dist := range []interface{ String() string }{pr.Manifest, pr.SpoofedManifest} {
		if dist == nil {
			d.Str("")
		} else {
			d.Str(dist.String())
		}
	}
	d.U64(uint64(pr.ImpairTargets))
	d.U64(uint64(pr.ExfilTargets))
	d.F64(pr.ExfilPeriod)
}

// storeKey builds the durable-store key for a candidate fingerprint.
func (e *Evaluator) storeKey(candFP uint64) evalstore.Key {
	return evalstore.Key{Topo: e.topoFP, Cand: candFP, Spec: e.specFP}
}

// scoreFromMeasurements builds the Score of a measurement vector in the
// store's fixed order, valued under this run's objective; Cost is
// filled in by the caller from this run's cost model.
func (e *Evaluator) scoreFromMeasurements(m evalstore.Measurements) Score {
	s := Score{
		PSuccess: m[0], MeanTTSF: m[1], FinalRatio: m[2], PDetect: m[3],
		MeanDetLatency: m[4], MeanDetections: m[5], MeanFoothold: m[6],
		MeanRotations: m[7], MeanReinfections: m[8], MeanRotationCost: m[9],
	}
	s.Value = e.value(s)
	return s
}

package optimize

import "diversify/internal/evalstore"

// evalSpecDigest hashes everything OUTSIDE the candidate that shapes an
// evaluation's raw measurements: the exploit catalog, the threat
// profile, the horizon, the replication count and seed (the common
// random number streams) and the firewall override. The topology is
// deliberately left out (it is its own key word), and so are the cost
// model, budget, objective, axes and search knobs — those shape what
// the optimizer does with measurements, not the measurements themselves,
// which is exactly why a re-optimization under a tweaked budget or
// objective can warm-start from the store.
func evalSpecDigest(p *Problem) uint64 {
	d := newDigester()
	d.str("diversify/evalspec/v1")
	d.u64(p.Catalog.Fingerprint())
	digestProfile(d, p)
	d.f64(p.Horizon)
	d.i64(int64(p.Reps))
	d.u64(p.Seed)
	d.str(string(p.FirewallVariant))
	return d.sum()
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

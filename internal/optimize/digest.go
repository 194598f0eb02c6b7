package optimize

import "math"

// digester accumulates an FNV-1a 64-bit hash over mixed-type fields.
// It builds the evaluation-spec word of the durable store key (see
// evalSpecDigest): two problems share a digest exactly when their
// stored measurements are interchangeable.
type digester struct{ h uint64 }

func newDigester() *digester { return &digester{h: fnvOffsetBasis} }

func (d *digester) byte(b byte) {
	d.h ^= uint64(b)
	d.h *= fnvPrime64
}

func (d *digester) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digester) i64(v int64) { d.u64(uint64(v)) }

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

func (d *digester) sum() uint64 { return d.h }

// digestProfile folds the malware profile in. Distributions contribute
// through their stable String() forms (every rng.Dist implementation
// prints its parameters deterministically).
func digestProfile(d *digester, p *Problem) {
	pr := &p.Profile
	d.str(pr.Name)
	d.i64(int64(pr.Objective))
	d.u64(uint64(len(pr.EntryKinds)))
	for _, k := range pr.EntryKinds {
		d.i64(int64(k))
	}
	d.f64(pr.SeedPeriod)
	d.i64(int64(pr.SeedCount))
	d.f64(pr.PropagationPeriod)
	d.f64(pr.RootRetryPeriod)
	d.i64(int64(pr.MaxStageAttempts))
	d.f64(pr.C2BeaconPeriod)
	d.f64(pr.BeaconDetectBase)
	d.f64(pr.SpoofProb)
	for _, dist := range []interface{ String() string }{pr.Manifest, pr.SpoofedManifest} {
		if dist == nil {
			d.str("")
		} else {
			d.str(dist.String())
		}
	}
	d.i64(int64(pr.ImpairTargets))
	d.i64(int64(pr.ExfilTargets))
	d.f64(pr.ExfilPeriod)
}

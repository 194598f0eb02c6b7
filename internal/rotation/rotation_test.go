package rotation

import (
	"math"
	"reflect"
	"testing"

	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/topology"
)

func testTopo() *topology.Topology {
	return topology.NewTieredSCADA(topology.DefaultTieredSpec())
}

func evalSpec(topo *topology.Topology, spec Spec, reps int, seed uint64) malware.EvalSpec {
	cat := exploits.StuxnetCatalog()
	return malware.EvalSpec{
		Config:  malware.Config{Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile()},
		Horizon: 720, Reps: reps, Seed: seed,
		NewRotator: func() malware.Rotator {
			e, err := NewEngine(spec, topo, cat, malware.StuxnetProfile())
			if err != nil {
				panic(err)
			}
			return e
		},
	}
}

func TestParseSpec(t *testing.T) {
	cases := map[string]Spec{
		"periodic:24":    {Kind: Periodic, Period: 24, Batch: 1},
		"triggered:48x2": {Kind: Triggered, Period: 48, Batch: 2},
		"adaptive:72":    {Kind: Adaptive, Period: 72, Batch: 1},
	}
	for sel, want := range cases {
		got, err := ParseSpec(sel)
		if err != nil {
			t.Fatalf("%q: %v", sel, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: got %+v want %+v", sel, got, want)
		}
		if got.Name() != sel {
			t.Errorf("%q: Name round-trip %q", sel, got.Name())
		}
	}
	// A bare policy name defaults the period to 48 hours.
	bare, err := ParseSpec("triggered")
	if err != nil || bare.Kind != Triggered || bare.Period != 48 {
		t.Fatalf("bare selector: %+v, %v", bare, err)
	}
	for _, bad := range []string{"", "periodic:", "hourly:4", "periodic:x", "periodic:-3", "periodic:24x0", "periodic:24xq"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	for _, bad := range []Spec{
		{},
		{Kind: Periodic},
		{Kind: Periodic, Period: math.NaN()},
		{Kind: Periodic, Period: 24, Batch: -1},
		{Kind: Kind(9), Period: 24},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v: expected error", bad)
		}
	}
}

func TestPlannedCost(t *testing.T) {
	periodic := Spec{Kind: Periodic, Period: 100, Batch: 2}
	if got := periodic.PlannedCost(720); got != 7*2 {
		t.Errorf("periodic planned cost %.1f, want 14", got)
	}
	triggered := Spec{Kind: Triggered, Period: 100}
	if got := triggered.PlannedCost(720); got != 7 {
		t.Errorf("triggered planned cost %.1f, want 7 (every poll priced)", got)
	}
	// The base-rate figure doubles as the adaptive engine's enforced
	// spend cap.
	if got := (Spec{Kind: Adaptive, Period: 100}).PlannedCost(720); got != 7 {
		t.Errorf("adaptive planned cost %.1f, want 7", got)
	}
	if got := periodic.PlannedCost(0); got != 0 {
		t.Errorf("planned cost over an empty horizon %.1f, want 0", got)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{Kind: Periodic, Period: 24, Batch: 2}
	fps := map[uint64]string{base.Fingerprint(): "base"}
	for name, s := range map[string]Spec{
		"kind":   {Kind: Triggered, Period: 24, Batch: 2},
		"period": {Kind: Periodic, Period: 48, Batch: 2},
		"batch":  {Kind: Periodic, Period: 24, Batch: 3},
	} {
		fp := s.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		fps[fp] = name
	}
}

func TestNewEngineValidation(t *testing.T) {
	topo := testTopo()
	cat := exploits.StuxnetCatalog()
	profile := malware.StuxnetProfile()
	if _, err := NewEngine(Spec{}, topo, cat, profile); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// A periodic engine must actually rotate, and the whole rotated
// evaluation must be byte-identical across worker counts — the
// determinism contract per-policy seeded streams exist for.
func TestPeriodicRotatesDeterministically(t *testing.T) {
	topo := testTopo()
	spec := Spec{Kind: Periodic, Period: 48, Batch: 2}
	es := evalSpec(topo, spec, 8, 11)
	es.Workers = 1
	want, err := malware.Evaluate(es)
	if err != nil {
		t.Fatal(err)
	}
	totalRot := 0
	for _, o := range want {
		totalRot += o.Rotations
		if o.RotationCost > spec.PlannedCost(720)+1e-9 {
			t.Fatalf("realized cost %.1f exceeds planned %.1f", o.RotationCost, spec.PlannedCost(720))
		}
	}
	if totalRot == 0 {
		t.Fatal("periodic engine performed no rotations")
	}
	for _, workers := range []int{2, 5} {
		es.Workers = workers
		got, err := malware.Evaluate(es)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: rotated outcomes diverged", workers)
		}
	}
}

// A triggered engine keys on perceived detections: with a threat that
// can never be detected it must not rotate once.
func TestTriggeredNeedsDetections(t *testing.T) {
	topo := testTopo()
	cat := exploits.StuxnetCatalog()
	silent := malware.DuquProfile()
	silent.BeaconDetectBase = 0 // silent C2 and exfiltration: zero detections
	outs, err := malware.Evaluate(malware.EvalSpec{
		Config:  malware.Config{Topo: topo, Catalog: cat, Profile: silent},
		Horizon: 720, Reps: 6, Seed: 5,
		NewRotator: func() malware.Rotator {
			e, err := NewEngine(Spec{Kind: Triggered, Period: 24}, topo, cat, silent)
			if err != nil {
				panic(err)
			}
			return e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Detections != 0 {
			t.Fatalf("replication %d: silent profile was detected", i)
		}
		if o.Rotations != 0 {
			t.Fatalf("replication %d: triggered engine rotated %d times without a detection", i, o.Rotations)
		}
	}
	// The same triggered engine under the default (noisy) Stuxnet profile
	// must rotate in at least one detected replication.
	noisy, err := malware.Evaluate(evalSpec(topo, Spec{Kind: Triggered, Period: 24}, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	rotated := 0
	for _, o := range noisy {
		rotated += o.Rotations
	}
	if rotated == 0 {
		t.Fatal("triggered engine never rotated under a detectable threat")
	}
}

// The adaptive engine must respect its rotation budget, the planned
// cost over the horizon, in every replication. At this period its
// overclocked bursts reach the cap, so the cap is what holds it.
func TestAdaptiveRespectsBudget(t *testing.T) {
	topo := testTopo()
	spec := Spec{Kind: Adaptive, Period: 96, Batch: 2}
	outs, err := malware.Evaluate(evalSpec(topo, spec, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	budget := spec.PlannedCost(720)
	capped := 0
	for i, o := range outs {
		if o.RotationCost > budget+1e-9 {
			t.Fatalf("replication %d: spent %.1f over budget %.1f", i, o.RotationCost, budget)
		}
		if o.RotationCost == budget {
			capped++
		}
	}
	if capped == 0 {
		t.Fatalf("no replication reached the %.1f budget: the cap goes unchecked", budget)
	}
}

// The headline dynamic-diversity effect (Chen et al.): rotating the
// monoculture's variants mid-campaign starves the attack — lower mean
// foothold time and more re-infection churn than the static deployment
// under identical replication streams.
func TestRotationShrinksFoothold(t *testing.T) {
	topo := testTopo()
	cat := exploits.StuxnetCatalog()
	static := malware.EvalSpec{
		Config:  malware.Config{Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile()},
		Horizon: 720, Reps: 24, Seed: 2,
	}
	staticOuts, err := malware.Evaluate(static)
	if err != nil {
		t.Fatal(err)
	}
	rotatedOuts, err := malware.Evaluate(evalSpec(topo, Spec{Kind: Periodic, Period: 48, Batch: 3}, 24, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Mean foothold over the replications that saw a compromise.
	meanFoothold := func(outs []indicators.Outcome) float64 {
		sum, n := 0.0, 0
		for _, o := range outs {
			if len(o.Compromised) > 0 {
				sum += o.FootholdTime
				n++
			}
		}
		if n == 0 {
			t.Fatal("no replication saw a compromise")
		}
		return sum / float64(n)
	}
	if rotated, static := meanFoothold(rotatedOuts), meanFoothold(staticOuts); rotated >= static {
		t.Fatalf("rotation did not shrink mean foothold: rotated %.1f vs static %.1f", rotated, static)
	}
	for _, o := range staticOuts {
		if o.Rotations != 0 || o.Reinfections != 0 || o.RotationCost != 0 {
			t.Fatal("static outcomes carry rotation measurements")
		}
	}
}

// The spec fingerprint seeds every engine and keys every evaluation
// store record, so its value for a parsed selector is pinned: a change
// here silently shifts every rotated outcome and cold-starts stores.
func TestFingerprintPinned(t *testing.T) {
	for sel, want := range map[string]uint64{
		"triggered:48":  0x5915f05ec5c1e05e,
		"adaptive:24x2": 0x48e68c833841b7e0,
		"periodic:24":   0xf9c82ace21085401,
	} {
		spec, err := ParseSpec(sel)
		if err != nil {
			t.Fatalf("%q: %v", sel, err)
		}
		if got := spec.Fingerprint(); got != want {
			t.Errorf("%q: fingerprint %016x, want %016x", sel, got, want)
		}
	}
}

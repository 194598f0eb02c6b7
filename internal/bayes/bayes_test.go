package bayes

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"diversify/internal/rng"
)

// sprinkler builds the classic Rain/Sprinkler/GrassWet network with the
// standard parameterization (states ordered [F, T]).
func sprinkler(t *testing.T) (*Network, VarID, VarID, VarID) {
	t.Helper()
	n := NewNetwork()
	rain := n.MustAdd("Rain", []string{"F", "T"}, nil, []float64{0.8, 0.2})
	sprk := n.MustAdd("Sprinkler", []string{"F", "T"}, []VarID{rain}, []float64{
		0.6, 0.4, // rain=F
		0.99, 0.01, // rain=T
	})
	wet := n.MustAdd("GrassWet", []string{"F", "T"}, []VarID{sprk, rain}, []float64{
		1.0, 0.0, // sprk=F, rain=F
		0.2, 0.8, // sprk=F, rain=T
		0.1, 0.9, // sprk=T, rain=F
		0.01, 0.99, // sprk=T, rain=T
	})
	return n, rain, sprk, wet
}

func TestSprinklerPosterior(t *testing.T) {
	n, rain, _, wet := sprinkler(t)
	// Standard result: P(Rain=T | GrassWet=T) ≈ 0.3577.
	post, err := n.Query(rain, Evidence{wet: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(post[1]-0.3577) > 0.0005 {
		t.Fatalf("P(Rain=T|Wet=T) = %v, want ~0.3577", post[1])
	}
	if math.Abs(post[0]+post[1]-1) > 1e-9 {
		t.Fatalf("posterior does not sum to 1: %v", post)
	}
}

func TestPriorQuery(t *testing.T) {
	n, rain, _, wet := sprinkler(t)
	prior, err := n.Query(rain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prior[1]-0.2) > 1e-9 {
		t.Fatalf("P(Rain=T) = %v, want 0.2", prior[1])
	}
	// Marginal P(GrassWet=T): 0.8*(0.6*0 + 0.4*0.9) + 0.2*(0.99*0.8 + 0.01*0.99).
	wetPrior, err := n.Query(wet, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8*(0.6*0+0.4*0.9) + 0.2*(0.99*0.8+0.01*0.99)
	if math.Abs(wetPrior[1]-want) > 1e-9 {
		t.Fatalf("P(Wet=T) = %v, want %v", wetPrior[1], want)
	}
}

func TestQueryWithEvidenceOnQueryAncestor(t *testing.T) {
	n, rain, sprk, wet := sprinkler(t)
	// With rain observed true, P(Wet=T) = 0.99*0.8 + 0.01*0.99.
	post, err := n.Query(wet, Evidence{rain: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.99*0.8 + 0.01*0.99
	if math.Abs(post[1]-want) > 1e-9 {
		t.Fatalf("P(Wet=T|Rain=T) = %v, want %v", post[1], want)
	}
	// Explaining away: P(Sprinkler=T | Wet=T, Rain=T) < P(Sprinkler=T | Wet=T).
	sGivenWet, err := n.Query(sprk, Evidence{wet: 1})
	if err != nil {
		t.Fatal(err)
	}
	sGivenWetRain, err := n.Query(sprk, Evidence{wet: 1, rain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sGivenWetRain[1] >= sGivenWet[1] {
		t.Fatalf("no explaining-away: %v vs %v", sGivenWetRain[1], sGivenWet[1])
	}
}

func TestImpossibleEvidence(t *testing.T) {
	n := NewNetwork()
	a := n.MustAdd("A", []string{"F", "T"}, nil, []float64{1, 0})
	if _, err := n.Query(a, Evidence{a: 1}); err == nil {
		t.Fatal("impossible evidence should error")
	}
}

func TestAddValidation(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Add("", []string{"a", "b"}, nil, []float64{0.5, 0.5}); !errors.Is(err, ErrInvalidNetwork) {
		t.Fatal("empty name accepted")
	}
	if _, err := n.Add("X", []string{"a"}, nil, []float64{1}); !errors.Is(err, ErrInvalidNetwork) {
		t.Fatal("single state accepted")
	}
	if _, err := n.Add("X", []string{"a", "b"}, nil, []float64{0.6, 0.6}); !errors.Is(err, ErrInvalidNetwork) {
		t.Fatal("non-normalized row accepted")
	}
	if _, err := n.Add("X", []string{"a", "b"}, nil, []float64{0.5}); !errors.Is(err, ErrInvalidNetwork) {
		t.Fatal("short CPT accepted")
	}
	if _, err := n.Add("X", []string{"a", "b"}, []VarID{99}, []float64{0.5, 0.5}); !errors.Is(err, ErrInvalidNetwork) {
		t.Fatal("unknown parent accepted")
	}
	x := n.MustAdd("X", []string{"a", "b"}, nil, []float64{0.5, 0.5})
	if _, err := n.Add("X", []string{"a", "b"}, nil, []float64{0.5, 0.5}); !errors.Is(err, ErrInvalidNetwork) {
		t.Fatal("duplicate name accepted")
	}
	if x != 0 || n.Len() != 1 {
		t.Fatalf("MustAdd returned id %d with %d variables, want the first variable", x, n.Len())
	}
}

func TestForwardSamplingMatchesPrior(t *testing.T) {
	n, rain, _, wet := sprinkler(t)
	r := rng.New(9)
	const samples = 200000
	rainT, wetT := 0, 0
	for i := 0; i < samples; i++ {
		a := n.Sample(r)
		if a[rain] == 1 {
			rainT++
		}
		if a[wet] == 1 {
			wetT++
		}
	}
	if got := float64(rainT) / samples; math.Abs(got-0.2) > 0.005 {
		t.Errorf("sampled P(Rain=T) = %v", got)
	}
	wantWet := 0.8*(0.4*0.9) + 0.2*(0.99*0.8+0.01*0.99)
	if got := float64(wetT) / samples; math.Abs(got-wantWet) > 0.005 {
		t.Errorf("sampled P(Wet=T) = %v, want ~%v", got, wantWet)
	}
}

func TestLikelihoodWeightingMatchesExact(t *testing.T) {
	n, rain, _, wet := sprinkler(t)
	exact, err := n.Query(rain, Evidence{wet: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := n.LikelihoodWeighting(rain, Evidence{wet: 1}, 200000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact[1]-approx[1]) > 0.01 {
		t.Fatalf("LW %v vs exact %v", approx[1], exact[1])
	}
}

// attackStageNetwork models the paper's usage: OS variant (root) drives
// root-access success, firewall variant drives propagation success, and
// the attack succeeds only if both stages succeed.
func attackStageNetwork(t *testing.T) (*Network, VarID, VarID, VarID, VarID, VarID) {
	t.Helper()
	n := NewNetwork()
	osv := n.MustAdd("OS", []string{"os1", "os2"}, nil, []float64{0.5, 0.5})
	fwv := n.MustAdd("Firewall", []string{"fw1", "fw2"}, nil, []float64{0.5, 0.5})
	root := n.MustAdd("RootAccess", []string{"fail", "ok"}, []VarID{osv}, []float64{
		0.2, 0.8, // os1: easily exploited
		0.9, 0.1, // os2: hardened
	})
	prop := n.MustAdd("Propagation", []string{"fail", "ok"}, []VarID{fwv}, []float64{
		0.3, 0.7,
		0.8, 0.2,
	})
	attack := n.MustAdd("AttackSuccess", []string{"no", "yes"}, []VarID{root, prop}, []float64{
		1, 0,
		1, 0,
		1, 0,
		0, 1, // only root=ok AND prop=ok
	})
	return n, osv, fwv, root, prop, attack
}

func TestAttackStageConditioning(t *testing.T) {
	n, osv, fwv, _, _, attack := attackStageNetwork(t)
	// Homogeneous weak config: os1 + fw1 → P = 0.8 * 0.7.
	weak, err := n.Query(attack, Evidence{osv: 0, fwv: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(weak[1]-0.8*0.7) > 1e-9 {
		t.Fatalf("weak config P = %v, want %v", weak[1], 0.8*0.7)
	}
	// Diversified config: os2 + fw2 → P = 0.1 * 0.2.
	strong, err := n.Query(attack, Evidence{osv: 1, fwv: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(strong[1]-0.1*0.2) > 1e-9 {
		t.Fatalf("strong config P = %v, want %v", strong[1], 0.1*0.2)
	}
	// Diagnostic reasoning: observing success raises P(os1).
	post, err := n.Query(osv, Evidence{attack: 1})
	if err != nil {
		t.Fatal(err)
	}
	if post[0] <= 0.5 {
		t.Fatalf("P(os1|success) = %v, want > 0.5", post[0])
	}
}

func TestQueryErrors(t *testing.T) {
	n, _, _, _, _, _ := attackStageNetwork(t)
	if _, err := n.Query(VarID(99), nil); err == nil {
		t.Fatal("unknown query variable accepted")
	}
	if _, err := n.Query(VarID(0), Evidence{VarID(99): 0}); err == nil {
		t.Fatal("unknown evidence variable accepted")
	}
	if _, err := n.Query(VarID(0), Evidence{VarID(1): 7}); err == nil {
		t.Fatal("out-of-range evidence state accepted")
	}
	if _, err := n.LikelihoodWeighting(VarID(0), nil, 0, rng.New(1)); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestThreeStateVariables(t *testing.T) {
	n := NewNetwork()
	osv := n.MustAdd("OS", []string{"xp", "w7", "linux"}, nil, []float64{0.3, 0.5, 0.2})
	exp := n.MustAdd("Exploit", []string{"fail", "ok"}, []VarID{osv}, []float64{
		0.1, 0.9,
		0.5, 0.5,
		0.95, 0.05,
	})
	marg, err := n.Query(exp, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3*0.9 + 0.5*0.5 + 0.2*0.05
	if math.Abs(marg[1]-want) > 1e-9 {
		t.Fatalf("P(exploit) = %v, want %v", marg[1], want)
	}
	// Bayes check: P(linux | exploit ok).
	post, err := n.Query(osv, Evidence{exp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(post[2]-0.2*0.05/want) > 1e-9 {
		t.Fatalf("P(linux|ok) = %v", post[2])
	}
}

func BenchmarkQuerySprinkler(b *testing.B) {
	n := NewNetwork()
	rain := n.MustAdd("Rain", []string{"F", "T"}, nil, []float64{0.8, 0.2})
	sprk := n.MustAdd("Sprinkler", []string{"F", "T"}, []VarID{rain}, []float64{0.6, 0.4, 0.99, 0.01})
	wet := n.MustAdd("GrassWet", []string{"F", "T"}, []VarID{sprk, rain},
		[]float64{1, 0, 0.2, 0.8, 0.1, 0.9, 0.01, 0.99})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Query(rain, Evidence{wet: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// MustAdd is Add that panics on error, for the tests' statically-known
// models.
func (n *Network) MustAdd(name string, states []string, parents []VarID, cpt []float64) VarID {
	id, err := n.Add(name, states, parents, cpt)
	if err != nil {
		panic(err)
	}
	return id
}

// LikelihoodWeighting estimates P(query | evidence) from n weighted
// samples: an independent cross-check of exact inference (Query).
func (n *Network) LikelihoodWeighting(query VarID, ev Evidence, samples int, r *rng.Rand) ([]float64, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("%w: sample count %d", ErrInvalidNetwork, samples)
	}
	counts := make([]float64, len(n.vars[query].States))
	assign := make([]int, len(n.vars))
	for s := 0; s < samples; s++ {
		w := 1.0
		for i, v := range n.vars {
			row := 0
			for _, p := range v.Parents {
				row = row*len(n.vars[p].States) + assign[p]
			}
			base := row * len(v.States)
			if obs, ok := ev[v.ID]; ok {
				assign[i] = obs
				w *= v.CPT[base+obs]
				continue
			}
			u := r.Float64()
			choice := len(v.States) - 1
			acc := 0.0
			for st := 0; st < len(v.States); st++ {
				acc += v.CPT[base+st]
				if u < acc {
					choice = st
					break
				}
			}
			assign[i] = choice
		}
		counts[assign[query]] += w
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("%w: all sample weights zero (impossible evidence?)", ErrInvalidNetwork)
	}
	for i := range counts {
		counts[i] /= total
	}
	return counts, nil
}

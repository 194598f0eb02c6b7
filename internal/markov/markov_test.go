package markov

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTwoStateTransient(t *testing.T) {
	// Simple birth-death: A <-> B with rates 2 (A→B) and 3 (B→A).
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	c.Transition(a, b, 2).Transition(b, a, 3)
	// Analytic: P_A(t) = 3/5 + 2/5 e^{-5t} starting from A.
	for _, tt := range []float64{0, 0.1, 0.5, 2} {
		dist, err := c.Transient([]float64{1, 0}, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.6 + 0.4*math.Exp(-5*tt)
		if math.Abs(dist[0]-want) > 1e-8 {
			t.Fatalf("P_A(%v) = %v, want %v", tt, dist[0], want)
		}
	}
}

func TestTransientAbsorbing(t *testing.T) {
	// A → B (absorbing), rate 1: P_B(t) = 1 - e^{-t}.
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	c.Transition(a, b, 1)
	dist, err := c.Transient([]float64{1, 0}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist[1]-(1-math.Exp(-2))) > 1e-8 {
		t.Fatalf("P_B(2) = %v", dist[1])
	}
}

func TestTransientValidation(t *testing.T) {
	c := NewChain()
	c.State("A")
	if _, err := c.Transient([]float64{0.5, 0.5}, 1, 0); err == nil {
		t.Fatal("wrong-length initial accepted")
	}
	if _, err := c.Transient([]float64{0.5}, 1, 0); err == nil {
		t.Fatal("non-normalized initial accepted")
	}
	if _, err := c.Transient([]float64{1}, -1, 0); err == nil {
		t.Fatal("negative time accepted")
	}
	// Chain with no transitions: distribution is constant.
	dist, err := c.Transient([]float64{1}, 5, 0)
	if err != nil || dist[0] != 1 {
		t.Fatalf("dist=%v err=%v", dist, err)
	}
}

func TestMeanTimeToAbsorptionSerial(t *testing.T) {
	// A → B → C(absorbing), rates r1, r2: E[T from A] = 1/r1 + 1/r2.
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	cc := c.State("C")
	c.Transition(a, b, 2).Transition(b, cc, 4)
	mt, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mt[a]-0.75) > 1e-12 {
		t.Fatalf("E[T_A] = %v, want 0.75", mt[a])
	}
	if math.Abs(mt[b]-0.25) > 1e-12 {
		t.Fatalf("E[T_B] = %v, want 0.25", mt[b])
	}
}

func TestMeanTimeWithLoop(t *testing.T) {
	// A → B (rate 1); B → A (rate 1), B → C absorbing (rate 1).
	// From B: exit rate 2; with prob 1/2 absorb, 1/2 back to A.
	// E_B = 1/2 + 1/2 E_A ; E_A = 1 + E_B → E_B = 2, E_A = 3.
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	cc := c.State("C")
	c.Transition(a, b, 1).Transition(b, a, 1).Transition(b, cc, 1)
	mt, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mt[a]-3) > 1e-9 || math.Abs(mt[b]-2) > 1e-9 {
		t.Fatalf("E = %v, want A:3 B:2", mt)
	}
}

func TestMeanTimeUnreachableAbsorption(t *testing.T) {
	// Two states cycling forever, no absorbing reachable.
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	c.State("C") // absorbing but unreachable
	c.Transition(a, b, 1).Transition(b, a, 1)
	if _, err := c.MeanTimeToAbsorption(); err == nil {
		t.Fatal("singular system accepted")
	}
}

func TestAbsorptionProbabilities(t *testing.T) {
	// A branches to two absorbing states with rates 1 and 3.
	c := NewChain()
	a := c.State("A")
	win := c.State("Win")
	lose := c.State("Lose")
	c.Transition(a, win, 1).Transition(a, lose, 3)
	probs, err := c.AbsorptionProbabilities(win)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[a]-0.25) > 1e-12 {
		t.Fatalf("P(win from A) = %v, want 0.25", probs[a])
	}
	if _, err := c.AbsorptionProbabilities(a); err == nil {
		t.Fatal("non-absorbing target accepted")
	}
}

func TestSteadyStateMatchesLongTransient(t *testing.T) {
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	d := c.State("C")
	c.Transition(a, b, 1).Transition(b, d, 2).Transition(d, a, 3).
		Transition(b, a, 0.5)
	// Stationary by global balance: π_B = π_A/2.5, π_C = 2π_B/3.
	pi := []float64{0.6, 0.24, 0.16}
	longRun, err := c.Transient([]float64{1, 0, 0}, 200, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(pi[i]-longRun[i]) > 1e-6 {
			t.Fatalf("steady %v vs transient(200) %v", pi, longRun)
		}
	}
}

func TestTransitionPanics(t *testing.T) {
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	for name, fn := range map[string]func(){
		"self-loop":     func() { c.Transition(a, a, 1) },
		"zero rate":     func() { c.Transition(a, b, 0) },
		"negative rate": func() { c.Transition(a, b, -1) },
		"unknown state": func() { c.Transition(a, StateID(9), 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestMadanMTTSF(t *testing.T) {
	// With detectRate = 0 the model is a pure series chain:
	// MTTSF = 1/vuln + 1/attack + 1/fail.
	m := NewMadanModel(0.5, 1, 2, 1e-12, 1)
	got, err := m.MTTSF()
	if err != nil {
		t.Fatal(err)
	}
	want := 1/0.5 + 1.0/1 + 1.0/2
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("MTTSF = %v, want ~%v", got, want)
	}
}

func TestMadanDetectionExtendsMTTSF(t *testing.T) {
	base := NewMadanModel(1, 1, 1, 0.0001, 2)
	strong := NewMadanModel(1, 1, 1, 5, 2)
	b, err := base.MTTSF()
	if err != nil {
		t.Fatal(err)
	}
	s, err := strong.MTTSF()
	if err != nil {
		t.Fatal(err)
	}
	if s <= b {
		t.Fatalf("stronger detection should raise MTTSF: %v <= %v", s, b)
	}
	// Analytic check: each Attacked visit absorbs with p = fail/(fail+detect).
	// Expected number of Good→Attacked cycles = 1/p; each cycle takes
	// 1/vuln + 1/attack + 1/(fail+detect), plus recovery 1/recover for
	// every detected (non-final) cycle.
	p := 1.0 / 6.0
	cycles := 1 / p
	cycleTime := 1.0 + 1.0 + 1.0/6.0
	want := cycles*cycleTime + (cycles-1)*0.5
	if math.Abs(s-want) > 1e-6 {
		t.Fatalf("MTTSF = %v, want %v", s, want)
	}
}

func TestMadanDiversityEffect(t *testing.T) {
	// Diversifying components lowers vulnerability discovery and attack
	// rates → MTTSF must increase monotonically.
	prev := 0.0
	for i, scale := range []float64{1, 0.5, 0.25, 0.1} {
		m := NewMadanModel(2*scale, 1*scale, 1, 0.5, 2)
		v, err := m.MTTSF()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && v <= prev {
			t.Fatalf("MTTSF not increasing under diversification: %v <= %v", v, prev)
		}
		prev = v
	}
}

// Property: transient distributions remain valid probability vectors.
func TestQuickTransientIsDistribution(t *testing.T) {
	f := func(r1Raw, r2Raw, tRaw uint16) bool {
		r1 := float64(r1Raw%100)/10 + 0.1
		r2 := float64(r2Raw%100)/10 + 0.1
		tt := float64(tRaw%50) / 10
		c := NewChain()
		a := c.State("A")
		b := c.State("B")
		d := c.State("D")
		c.Transition(a, b, r1).Transition(b, a, r2).Transition(b, d, r1)
		dist, err := c.Transient([]float64{1, 0, 0}, tt, 0)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range dist {
			if p < -1e-12 || p > 1+1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMTTSF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewMadanModel(0.5, 1, 2, 0.7, 1)
		if _, err := m.MTTSF(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransient(b *testing.B) {
	c := NewChain()
	states := make([]StateID, 20)
	for i := range states {
		states[i] = c.State("s")
	}
	for i := 0; i < len(states)-1; i++ {
		c.Transition(states[i], states[i+1], 1.5)
		if i > 0 {
			c.Transition(states[i], states[i-1], 0.5)
		}
	}
	init := make([]float64, len(states))
	init[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(init, 10, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

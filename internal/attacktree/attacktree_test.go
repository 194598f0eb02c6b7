package attacktree

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"diversify/internal/rng"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		root *Node
		ok   bool
	}{
		{"valid leaf", NewLeaf("a", 0.5, nil), true},
		{"valid and", NewAnd("and", NewLeaf("a", 0.5, nil), NewLeaf("b", 0.2, nil)), true},
		{"prob > 1", NewLeaf("a", 1.5, nil), false},
		{"prob < 0", NewLeaf("a", -0.1, nil), false},
		{"empty gate", NewAnd("and"), false},
		{"duplicate names", NewAnd("and", NewLeaf("x", 0.5, nil), NewLeaf("x", 0.5, nil)), false},
		{"empty name", NewLeaf("", 0.5, nil), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := New(c.root).Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && !errors.Is(err, ErrInvalidTree) {
				t.Fatalf("expected ErrInvalidTree, got %v", err)
			}
		})
	}
	if err := (&Tree{}).Validate(); !errors.Is(err, ErrInvalidTree) {
		t.Fatal("nil root should be invalid")
	}
}

func TestPaperWorkedExample(t *testing.T) {
	// §I: compromising two machines. Identical machines: PSA ≈ PM (one
	// exploit reused). Diverse machines: PSA ≈ PM1 × PM2.
	const pm = 0.4
	identical := New(NewAnd("attack",
		NewLeaf("m1", pm, nil),
		NewLeaf("m2", 1.0, nil), // exploit reuse: second machine free
	))
	diverse := New(NewAnd("attack",
		NewLeaf("m1", pm, nil),
		NewLeaf("m2", pm, nil),
	))
	if got := identical.SuccessProbability(); math.Abs(got-pm) > 1e-12 {
		t.Fatalf("identical PSA = %v, want %v", got, pm)
	}
	if got := diverse.SuccessProbability(); math.Abs(got-pm*pm) > 1e-12 {
		t.Fatalf("diverse PSA = %v, want %v", got, pm*pm)
	}
}

func TestSuccessProbabilityGates(t *testing.T) {
	a, b, c := NewLeaf("a", 0.5, nil), NewLeaf("b", 0.4, nil), NewLeaf("c", 0.2, nil)
	tests := []struct {
		name string
		root *Node
		want float64
	}{
		{"and", NewAnd("g", a, b), 0.2},
		{"nested and", NewAnd("g", NewAnd("h", a, b), c), 0.5 * 0.4 * 0.2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := New(tc.root).SuccessProbability()
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("P = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSampleAgreesWithAnalytic(t *testing.T) {
	tree := New(NewAnd("root",
		NewAnd("pathA",
			NewLeaf("phish", 0.6, rng.Deterministic{Value: 2}),
			NewLeaf("escalate", 0.9, rng.Deterministic{Value: 3}),
		),
		NewAnd("pathB",
			NewLeaf("vpn", 0.8, rng.Deterministic{Value: 4}),
			NewLeaf("plc", 0.7, rng.Deterministic{Value: 1}),
		),
	))
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	want := tree.SuccessProbability()
	r := rng.New(42)
	got, dur := tree.EstimateSuccess(60000, r)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("MC success %v, analytic %v", got, want)
	}
	if dur != 4 {
		t.Fatalf("MC mean duration %v, want the slowest leaf's 4", dur)
	}
}

func TestSampleDurations(t *testing.T) {
	r := rng.New(7)
	// AND parallel: duration = max.
	tree := New(NewAnd("par",
		NewLeaf("p1", 1, rng.Deterministic{Value: 2}),
		NewLeaf("p2", 1, rng.Deterministic{Value: 3}),
	))
	o := tree.Sample(r)
	if !o.Success || o.Duration != 3 {
		t.Fatalf("AND outcome = %+v, want success in 3", o)
	}
	// A failed child fails the gate; its duration still counts.
	tree = New(NewAnd("par",
		NewLeaf("f1", 0, rng.Deterministic{Value: 9}),
		NewLeaf("f2", 1, rng.Deterministic{Value: 4}),
	))
	o = tree.Sample(r)
	if o.Success || o.Duration != 9 {
		t.Fatalf("AND outcome = %+v, want failure in 9", o)
	}
}

// Property: success probability is within [0,1], and hardening any leaf
// (lowering its probability) never increases the tree's probability.
func TestQuickMonotoneHardening(t *testing.T) {
	f := func(p1Raw, p2Raw, p3Raw, hardRaw uint16) bool {
		p1 := float64(p1Raw%1000) / 1000
		p2 := float64(p2Raw%1000) / 1000
		p3 := float64(p3Raw%1000) / 1000
		hard := float64(hardRaw%1000) / 1000
		build := func(pa float64) *Tree {
			return New(NewAnd("root",
				NewAnd("g", NewLeaf("a", pa, nil), NewLeaf("b", p2, nil)),
				NewLeaf("c", p3, nil),
			))
		}
		base := build(p1).SuccessProbability()
		if base < 0 || base > 1 {
			return false
		}
		return build(p1*hard).SuccessProbability() <= base+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: diversity product rule generalizes — n distinct machines in
// series give PSA = p^n, always <= p for p in [0,1].
func TestQuickSeriesDiversity(t *testing.T) {
	f := func(pRaw uint16, nRaw uint8) bool {
		p := float64(pRaw%1000) / 1000
		n := int(nRaw%6) + 1
		children := make([]*Node, n)
		for i := range children {
			children[i] = NewLeaf(string(rune('a'+i)), p, nil)
		}
		tree := New(NewAnd("root", children...))
		got := tree.SuccessProbability()
		want := math.Pow(p, float64(n))
		return math.Abs(got-want) < 1e-9 && got <= p+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateSuccessNoSuccesses(t *testing.T) {
	tree := New(NewLeaf("never", 0, nil))
	p, mean := tree.EstimateSuccess(100, rng.New(1))
	if p != 0 || !math.IsNaN(mean) {
		t.Fatalf("p=%v mean=%v, want 0 and NaN", p, mean)
	}
}

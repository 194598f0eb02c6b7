package doe

import (
	"errors"
	"testing"
	"testing/quick"

	"diversify/internal/rng"
)

func TestFullFactorial(t *testing.T) {
	d, err := FullFactorial([]Factor{
		{Name: "OS", Levels: []string{"xp", "w7", "linux"}},
		{Name: "FW", Levels: []string{"basic", "dpi"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRuns() != 6 {
		t.Fatalf("runs = %d, want 6", d.NumRuns())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.IsBalanced() {
		t.Fatal("full factorial not balanced")
	}
	// Every combination distinct.
	seen := map[string]bool{}
	for i := range d.Runs {
		key := d.CellKey(i)
		if seen[key] {
			t.Fatalf("duplicate combination %s", key)
		}
		seen[key] = true
	}
}

func TestFullFactorialErrors(t *testing.T) {
	if _, err := FullFactorial([]Factor{{Name: "", Levels: []string{"a", "b"}}}); !errors.Is(err, ErrBadDesign) {
		t.Fatal("unnamed factor accepted")
	}
	if _, err := FullFactorial([]Factor{{Name: "X", Levels: []string{"a"}}}); !errors.Is(err, ErrBadDesign) {
		t.Fatal("single-level factor accepted")
	}
}

func TestTwoLevelFactors(t *testing.T) {
	fs := TwoLevelFactors(3, []string{"OS", "FW"})
	if fs[0].Name != "OS" || fs[1].Name != "FW" || fs[2].Name != "C" {
		t.Fatalf("names = %v %v %v", fs[0].Name, fs[1].Name, fs[2].Name)
	}
}

func TestFractionalFactorialHalf(t *testing.T) {
	// 2^(4-1) with D=ABC: resolution IV.
	d, err := FractionalFactorial(TwoLevelFactors(4, nil), []string{"D=ABC"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRuns() != 8 {
		t.Fatalf("runs = %d, want 8", d.NumRuns())
	}
	if d.Resolution != 4 {
		t.Fatalf("resolution = %d, want 4", d.Resolution)
	}
	if !d.IsBalanced() || !d.IsOrthogonal() {
		t.Fatal("2^(4-1) should be balanced and orthogonal")
	}
	// D column equals XOR of A,B,C in every run.
	for _, run := range d.Runs {
		if run[3] != run[0]^run[1]^run[2] {
			t.Fatalf("generator violated in run %v", run)
		}
	}
}

func TestFractionalFactorialQuarter(t *testing.T) {
	// 2^(6-2) with E=ABC, F=BCD: resolution IV (standard design).
	d, err := FractionalFactorial(TwoLevelFactors(6, nil), []string{"E=ABC", "F=BCD"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRuns() != 16 {
		t.Fatalf("runs = %d, want 16", d.NumRuns())
	}
	if d.Resolution != 4 {
		t.Fatalf("resolution = %d, want 4", d.Resolution)
	}
	if !d.IsBalanced() || !d.IsOrthogonal() {
		t.Fatal("2^(6-2) should be balanced and orthogonal")
	}
}

func TestFractionalResolutionIII(t *testing.T) {
	// 2^(3-1) with C=AB: defining relation I=ABC, resolution III.
	d, err := FractionalFactorial(TwoLevelFactors(3, nil), []string{"C=AB"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Resolution != 3 {
		t.Fatalf("resolution = %d, want 3", d.Resolution)
	}
}

func TestFractionalFactorialErrors(t *testing.T) {
	fs := TwoLevelFactors(4, nil)
	cases := []struct {
		name string
		gens []string
	}{
		{"wrong letter", []string{"C=AB"}},
		{"garbage", []string{"DABC"}},
		{"non-base reference", []string{"D=AD"}},
		{"too short", []string{"D=A"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FractionalFactorial(fs, c.gens); !errors.Is(err, ErrBadDesign) {
				t.Fatalf("err = %v", err)
			}
		})
	}
	if _, err := FractionalFactorial(TwoLevelFactors(1, nil), []string{"B=A"}); !errors.Is(err, ErrBadDesign) {
		t.Fatal("p >= k accepted")
	}
	multi := []Factor{{Name: "A", Levels: []string{"1", "2", "3"}}, {Name: "B", Levels: []string{"1", "2"}}}
	if _, err := FractionalFactorial(multi, []string{"B=A"}); !errors.Is(err, ErrBadDesign) {
		t.Fatal("multi-level factor accepted")
	}
}

func TestPlackettBurman(t *testing.T) {
	for _, n := range []int{4, 8, 12, 16, 20} {
		d, err := PlackettBurman(n)
		if err != nil {
			t.Fatalf("PB(%d): %v", n, err)
		}
		if d.NumRuns() != n || len(d.Factors) != n-1 {
			t.Fatalf("PB(%d): %d runs × %d factors", n, d.NumRuns(), len(d.Factors))
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("PB(%d): %v", n, err)
		}
		if !d.IsBalanced() {
			t.Fatalf("PB(%d) not balanced", n)
		}
		if !d.IsOrthogonal() {
			t.Fatalf("PB(%d) not orthogonal", n)
		}
		if d.Resolution != 3 {
			t.Fatalf("PB(%d) resolution = %d", n, d.Resolution)
		}
	}
	if _, err := PlackettBurman(10); !errors.Is(err, ErrBadDesign) {
		t.Fatal("PB(10) accepted")
	}
}

func TestLatinHypercube(t *testing.T) {
	const n, dims = 20, 3
	pts, err := LatinHypercube(n, dims, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != n {
		t.Fatalf("points = %d", len(pts))
	}
	// Stratification: each dimension has exactly one sample per stratum.
	for d := 0; d < dims; d++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := pts[i][d]
			if v < 0 || v >= 1 {
				t.Fatalf("sample out of [0,1): %v", v)
			}
			s := int(v * n)
			if seen[s] {
				t.Fatalf("dimension %d stratum %d sampled twice", d, s)
			}
			seen[s] = true
		}
	}
	if _, err := LatinHypercube(0, 1, rng.New(1)); !errors.Is(err, ErrBadDesign) {
		t.Fatal("n=0 accepted")
	}
}

func TestDesignString(t *testing.T) {
	d, err := FullFactorial(TwoLevelFactors(2, []string{"OS", "FW"}))
	if err != nil {
		t.Fatal(err)
	}
	s := d.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("String too short: %q", s)
	}
}

func TestCellKeyCanonical(t *testing.T) {
	d, err := FullFactorial(TwoLevelFactors(2, []string{"B", "A"}))
	if err != nil {
		t.Fatal(err)
	}
	// Keys sort factor names, so they're stable regardless of declaration
	// order.
	key := d.CellKey(0)
	if key != "A=lo,B=lo" {
		t.Fatalf("key = %q", key)
	}
}

// Property: every fractional factorial with valid generators is balanced
// and orthogonal.
func TestQuickFractionalProperties(t *testing.T) {
	gens := [][]string{
		{"D=ABC"},
		{"E=ABC", "F=BCD"},
		{"E=ABD", "F=ACD"},
	}
	ks := []int{4, 6, 6}
	f := func(pick uint8) bool {
		i := int(pick) % len(gens)
		d, err := FractionalFactorial(TwoLevelFactors(ks[i], nil), gens[i])
		if err != nil {
			return false
		}
		return d.IsBalanced() && d.IsOrthogonal() && d.Resolution >= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFullFactorial6(b *testing.B) {
	fs := TwoLevelFactors(6, nil)
	for i := 0; i < b.N; i++ {
		if _, err := FullFactorial(fs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFractional(b *testing.B) {
	fs := TwoLevelFactors(6, nil)
	for i := 0; i < b.N; i++ {
		if _, err := FractionalFactorial(fs, []string{"E=ABC", "F=BCD"}); err != nil {
			b.Fatal(err)
		}
	}
}

// IsOrthogonal reports whether every pair of two-level factors is
// orthogonal in ±1 coding (Σ xᵢxⱼ = 0). Factors with more than two
// levels return false (orthogonality is checked for coded designs only).
func (d *Design) IsOrthogonal() bool {
	for _, f := range d.Factors {
		if len(f.Levels) != 2 {
			return false
		}
	}
	coded := func(l int) int { return 2*l - 1 }
	for a := 0; a < len(d.Factors); a++ {
		for b := a + 1; b < len(d.Factors); b++ {
			sum := 0
			for _, run := range d.Runs {
				sum += coded(run[a]) * coded(run[b])
			}
			if sum != 0 {
				return false
			}
		}
	}
	return true
}

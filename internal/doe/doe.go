// Package doe implements Design of Experiments, step 2 of the paper's
// framework: "Given the large number of HW/SW components that can be
// potentially diversified in a real system ... measurement of security
// indicators is driven by a DoE approach. DoE allows narrowing the number
// of configurations to assess."
//
// Provided designs: full factorials over arbitrary level counts,
// two-level fractional factorials (2^(k−p) with generator words and
// resolution computation), Plackett–Burman screening designs, and Latin
// hypercube sampling for continuous calibration sweeps.
package doe

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"diversify/internal/rng"
)

// ErrBadDesign reports an invalid design specification.
var ErrBadDesign = errors.New("doe: invalid design")

// Factor is one experimental factor with named levels.
type Factor struct {
	Name   string
	Levels []string
}

// Design is an experiment plan: Runs[i][j] is the level index of factor j
// in run i.
type Design struct {
	Factors []Factor
	Runs    [][]int
	// Resolution is the design resolution for fractional factorials
	// (0 when not applicable: full factorials, PB designs report 3).
	Resolution int
}

// NumRuns returns the number of runs.
func (d *Design) NumRuns() int { return len(d.Runs) }

// Level returns the level name of factor j in run i.
func (d *Design) Level(i, j int) string { return d.Factors[j].Levels[d.Runs[i][j]] }

// Validate checks structural consistency.
func (d *Design) Validate() error {
	if len(d.Factors) == 0 {
		return fmt.Errorf("%w: no factors", ErrBadDesign)
	}
	for _, f := range d.Factors {
		if f.Name == "" || len(f.Levels) < 2 {
			return fmt.Errorf("%w: factor %q needs a name and >=2 levels", ErrBadDesign, f.Name)
		}
	}
	for i, run := range d.Runs {
		if len(run) != len(d.Factors) {
			return fmt.Errorf("%w: run %d has %d entries, want %d", ErrBadDesign, i, len(run), len(d.Factors))
		}
		for j, lv := range run {
			if lv < 0 || lv >= len(d.Factors[j].Levels) {
				return fmt.Errorf("%w: run %d factor %q level %d out of range", ErrBadDesign, i, d.Factors[j].Name, lv)
			}
		}
	}
	return nil
}

// IsBalanced reports whether every factor's levels appear equally often.
func (d *Design) IsBalanced() bool {
	for j, f := range d.Factors {
		counts := make([]int, len(f.Levels))
		for _, run := range d.Runs {
			counts[run[j]]++
		}
		for _, c := range counts[1:] {
			if c != counts[0] {
				return false
			}
		}
	}
	return true
}

// FullFactorial enumerates every level combination (first factor varies
// slowest).
func FullFactorial(factors []Factor) (*Design, error) {
	d := &Design{Factors: append([]Factor(nil), factors...)}
	if err := d.Validate(); err != nil && len(factors) == 0 {
		return nil, err
	}
	total := 1
	for _, f := range factors {
		if f.Name == "" || len(f.Levels) < 2 {
			return nil, fmt.Errorf("%w: factor %q needs a name and >=2 levels", ErrBadDesign, f.Name)
		}
		total *= len(f.Levels)
		if total > 1<<22 {
			return nil, fmt.Errorf("%w: full factorial would need %d+ runs", ErrBadDesign, total)
		}
	}
	d.Runs = make([][]int, total)
	for i := 0; i < total; i++ {
		run := make([]int, len(factors))
		rem := i
		for j := len(factors) - 1; j >= 0; j-- {
			run[j] = rem % len(factors[j].Levels)
			rem /= len(factors[j].Levels)
		}
		d.Runs[i] = run
	}
	return d, nil
}

// TwoLevelFactors builds k two-level factors named by the given names
// (or A, B, C... when names is nil) with levels "lo"/"hi".
func TwoLevelFactors(k int, names []string) []Factor {
	out := make([]Factor, k)
	for i := 0; i < k; i++ {
		name := string(rune('A' + i))
		if names != nil && i < len(names) {
			name = names[i]
		}
		out[i] = Factor{Name: name, Levels: []string{"lo", "hi"}}
	}
	return out
}

// FractionalFactorial builds a 2^(k−p) design. generators has length p;
// each entry reads "E=ABC", defining the (k−p+i)-th factor (letter) as
// the product (XOR in 0/1 coding) of base-factor columns. Factor letters
// are A.. in factor order. The design's Resolution is the length of the
// shortest word in the defining relation.
func FractionalFactorial(factors []Factor, generators []string) (*Design, error) {
	k := len(factors)
	p := len(generators)
	if k < 2 || p < 1 || p >= k {
		return nil, fmt.Errorf("%w: need 1 <= p < k (k=%d, p=%d)", ErrBadDesign, k, p)
	}
	for _, f := range factors {
		if len(f.Levels) != 2 {
			return nil, fmt.Errorf("%w: fractional factorials need two-level factors (%q has %d)",
				ErrBadDesign, f.Name, len(f.Levels))
		}
	}
	base := k - p
	// Parse generators into index sets over base factors.
	genCols := make([][]int, p)
	genWords := make([][]int, p) // full word incl. the defined factor
	for gi, g := range generators {
		parts := strings.SplitN(strings.ReplaceAll(g, " ", ""), "=", 2)
		if len(parts) != 2 || len(parts[0]) != 1 {
			return nil, fmt.Errorf("%w: generator %q must read like \"E=ABC\"", ErrBadDesign, g)
		}
		defined := int(parts[0][0] - 'A')
		if defined != base+gi {
			return nil, fmt.Errorf("%w: generator %q must define factor %c (in order)",
				ErrBadDesign, g, rune('A'+base+gi))
		}
		var cols []int
		for _, ch := range parts[1] {
			idx := int(ch - 'A')
			if idx < 0 || idx >= base {
				return nil, fmt.Errorf("%w: generator %q references non-base factor %c",
					ErrBadDesign, g, ch)
			}
			cols = append(cols, idx)
		}
		if len(cols) < 2 {
			return nil, fmt.Errorf("%w: generator %q too short", ErrBadDesign, g)
		}
		genCols[gi] = cols
		genWords[gi] = append(append([]int{}, cols...), defined)
	}
	runs := 1 << base
	d := &Design{Factors: append([]Factor(nil), factors...), Runs: make([][]int, runs)}
	for i := 0; i < runs; i++ {
		run := make([]int, k)
		for j := 0; j < base; j++ {
			// Standard (Yates) order: factor A varies fastest.
			run[j] = (i >> j) & 1
		}
		for gi, cols := range genCols {
			v := 0
			for _, c := range cols {
				v ^= run[c]
			}
			run[base+gi] = v
		}
		d.Runs[i] = run
	}
	d.Resolution = resolution(genWords, k)
	return d, nil
}

// resolution computes the minimum word length of the defining relation
// generated by the generator words (as factor index sets).
func resolution(words [][]int, k int) int {
	p := len(words)
	min := k + 1
	// Every non-empty subset of generators contributes the symmetric
	// difference of its words.
	for mask := 1; mask < (1 << p); mask++ {
		present := make([]bool, k)
		for gi := 0; gi < p; gi++ {
			if mask&(1<<gi) == 0 {
				continue
			}
			for _, f := range words[gi] {
				present[f] = !present[f]
			}
		}
		length := 0
		for _, b := range present {
			if b {
				length++
			}
		}
		if length > 0 && length < min {
			min = length
		}
	}
	if min == k+1 {
		return 0
	}
	return min
}

// PlackettBurman returns an n-run screening design for n−1 two-level
// factors. Powers of two use the Sylvester Hadamard construction; n=12
// and n=20 use the standard cyclic generators. PB designs have
// resolution III.
func PlackettBurman(n int) (*Design, error) {
	var rows [][]int
	switch {
	case n >= 4 && n&(n-1) == 0:
		rows = sylvesterHadamard(n)
	case n == 12:
		rows = cyclicPB([]int{1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0})
	case n == 20:
		rows = cyclicPB([]int{1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0})
	default:
		return nil, fmt.Errorf("%w: Plackett-Burman supports powers of two, 12 and 20 (got %d)", ErrBadDesign, n)
	}
	k := n - 1
	d := &Design{Factors: TwoLevelFactors(k, nil), Runs: rows, Resolution: 3}
	return d, nil
}

// sylvesterHadamard builds H_n recursively (entries ±1 → 1/0), dropping
// the all-ones first column.
func sylvesterHadamard(n int) [][]int {
	h := [][]int{{1}}
	for size := 1; size < n; size *= 2 {
		next := make([][]int, 2*size)
		for i := 0; i < size; i++ {
			next[i] = append(append([]int{}, h[i]...), h[i]...)
			inv := make([]int, size)
			for j, v := range h[i] {
				inv[j] = 1 - v
			}
			next[size+i] = append(append([]int{}, h[i]...), inv...)
		}
		h = next
	}
	out := make([][]int, n)
	for i := range out {
		out[i] = append([]int{}, h[i][1:]...) // drop intercept column
	}
	return out
}

// cyclicPB expands a first row by cyclic shifts and appends the all-lo
// run.
func cyclicPB(first []int) [][]int {
	k := len(first)
	rows := make([][]int, 0, k+1)
	for i := 0; i < k; i++ {
		row := make([]int, k)
		for j := 0; j < k; j++ {
			row[j] = first[(j+k-i)%k]
		}
		rows = append(rows, row)
	}
	rows = append(rows, make([]int, k))
	return rows
}

// LatinHypercube draws n stratified samples in [0,1)^dims: each
// dimension is divided into n equal strata, each stratum sampled exactly
// once, strata order randomized per dimension.
func LatinHypercube(n, dims int, r *rng.Rand) ([][]float64, error) {
	if n <= 0 || dims <= 0 {
		return nil, fmt.Errorf("%w: n=%d dims=%d", ErrBadDesign, n, dims)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dims)
	}
	for d := 0; d < dims; d++ {
		perm := r.Perm(n)
		for i := 0; i < n; i++ {
			out[i][d] = (float64(perm[i]) + r.Float64()) / float64(n)
		}
	}
	return out, nil
}

// String renders the design as a compact table.
func (d *Design) String() string {
	var b strings.Builder
	names := make([]string, len(d.Factors))
	for i, f := range d.Factors {
		names[i] = f.Name
	}
	fmt.Fprintf(&b, "run\t%s\n", strings.Join(names, "\t"))
	for i, run := range d.Runs {
		levels := make([]string, len(run))
		for j, lv := range run {
			levels[j] = d.Factors[j].Levels[lv]
		}
		fmt.Fprintf(&b, "%d\t%s\n", i+1, strings.Join(levels, "\t"))
	}
	return b.String()
}

// CellKey is a canonical identifier of a run's factor-level combination,
// used for joining design rows with measured responses.
func (d *Design) CellKey(run int) string {
	parts := make([]string, len(d.Factors))
	for j := range d.Factors {
		parts[j] = fmt.Sprintf("%s=%s", d.Factors[j].Name, d.Level(run, j))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Package bayes implements discrete Bayesian networks, the third
// attack-modeling formalism named by the paper (§II). In the framework a
// network relates component variants (root variables) to per-stage attack
// success (conditional variables), so stage probabilities can be queried
// under any diversity configuration as evidence.
//
// Exact inference uses variable elimination over factors; approximate
// inference uses likelihood weighting.
package bayes

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diversify/internal/rng"
)

// ErrInvalidNetwork reports a structural or numeric defect in a network.
var ErrInvalidNetwork = errors.New("bayes: invalid network")

// VarID identifies a variable within its network.
type VarID int

// Variable is a discrete random variable.
type Variable struct {
	ID      VarID
	Name    string
	States  []string
	Parents []VarID
	// CPT is row-major: one row per combination of parent states
	// (first parent varies slowest), one column per state.
	CPT []float64
}

// Network is a directed acyclic graphical model. Build with Add; variables
// must be added parents-first (which guarantees acyclicity).
type Network struct {
	vars   []*Variable
	byName map[string]VarID
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{byName: map[string]VarID{}}
}

// Add declares a variable with the given states, parents (already added)
// and CPT, returning its ID. The CPT must have len(states) columns and one
// row per parent-state combination; each row must sum to 1.
func (n *Network) Add(name string, states []string, parents []VarID, cpt []float64) (VarID, error) {
	if name == "" || len(states) < 2 {
		return 0, fmt.Errorf("%w: variable %q needs a name and >=2 states", ErrInvalidNetwork, name)
	}
	if _, dup := n.byName[name]; dup {
		return 0, fmt.Errorf("%w: duplicate variable %q", ErrInvalidNetwork, name)
	}
	rows := 1
	for _, p := range parents {
		if int(p) < 0 || int(p) >= len(n.vars) {
			return 0, fmt.Errorf("%w: variable %q references unknown parent %d", ErrInvalidNetwork, name, p)
		}
		rows *= len(n.vars[p].States)
	}
	if len(cpt) != rows*len(states) {
		return 0, fmt.Errorf("%w: variable %q CPT has %d entries, want %d",
			ErrInvalidNetwork, name, len(cpt), rows*len(states))
	}
	for r := 0; r < rows; r++ {
		sum := 0.0
		for c := 0; c < len(states); c++ {
			v := cpt[r*len(states)+c]
			if v < 0 || v > 1 || math.IsNaN(v) {
				return 0, fmt.Errorf("%w: variable %q CPT entry (%d,%d)=%v outside [0,1]",
					ErrInvalidNetwork, name, r, c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return 0, fmt.Errorf("%w: variable %q CPT row %d sums to %v", ErrInvalidNetwork, name, r, sum)
		}
	}
	id := VarID(len(n.vars))
	v := &Variable{ID: id, Name: name, States: append([]string(nil), states...),
		Parents: append([]VarID(nil), parents...), CPT: append([]float64(nil), cpt...)}
	n.vars = append(n.vars, v)
	n.byName[name] = id
	return id, nil
}

// Len returns the number of variables.
func (n *Network) Len() int { return len(n.vars) }

// Evidence maps variables to observed state indices.
type Evidence map[VarID]int

// factor is a function over a subset of variables, represented as a dense
// table in row-major order (first variable varies slowest).
type factor struct {
	vars []VarID // sorted ascending
	card []int
	data []float64
}

func (n *Network) newFactorFromCPT(v *Variable) *factor {
	scope := append([]VarID{}, v.Parents...)
	scope = append(scope, v.ID)
	f := n.makeFactor(scope)
	// Walk every assignment of (parents..., self) in CPT order and place
	// it into the (sorted-scope) factor table.
	card := make([]int, len(scope))
	for i, id := range scope {
		card[i] = len(n.vars[id].States)
	}
	assign := make([]int, len(scope))
	for idx := 0; ; idx++ {
		// CPT index: parents row-major then state.
		f.set(scope, assign, v.CPT[idx])
		// Increment odometer (last varies fastest, matching CPT layout).
		j := len(assign) - 1
		for j >= 0 {
			assign[j]++
			if assign[j] < card[j] {
				break
			}
			assign[j] = 0
			j--
		}
		if j < 0 {
			break
		}
	}
	return f
}

// makeFactor creates a unit factor over scope (deduplicated, sorted).
func (n *Network) makeFactor(scope []VarID) *factor {
	uniq := map[VarID]bool{}
	for _, id := range scope {
		uniq[id] = true
	}
	vars := make([]VarID, 0, len(uniq))
	for id := range uniq {
		vars = append(vars, id)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	card := make([]int, len(vars))
	size := 1
	for i, id := range vars {
		card[i] = len(n.vars[id].States)
		size *= card[i]
	}
	data := make([]float64, size)
	for i := range data {
		data[i] = 1
	}
	return &factor{vars: vars, card: card, data: data}
}

// pos returns a variable's index within the factor scope, or -1.
func (f *factor) pos(id VarID) int {
	for i, v := range f.vars {
		if v == id {
			return i
		}
	}
	return -1
}

// index converts a per-scope-variable assignment into a flat table index.
func (f *factor) index(assign []int) int {
	idx := 0
	for i, a := range assign {
		idx = idx*f.card[i] + a
	}
	return idx
}

// set writes value at the assignment given over an arbitrary variable
// order (vars/assign pairs); variables outside the factor scope are
// ignored.
func (f *factor) set(vars []VarID, assign []int, value float64) {
	local := make([]int, len(f.vars))
	for i, id := range vars {
		if p := f.pos(id); p >= 0 {
			local[p] = assign[i]
		}
	}
	f.data[f.index(local)] = value
}

// multiply returns the factor product f ⊙ g.
func (n *Network) multiply(f, g *factor) *factor {
	scope := append(append([]VarID{}, f.vars...), g.vars...)
	out := n.makeFactor(scope)
	assign := make([]int, len(out.vars))
	fa := make([]int, len(f.vars))
	ga := make([]int, len(g.vars))
	for flat := 0; flat < len(out.data); flat++ {
		// Decode flat index into assign.
		rem := flat
		for i := len(out.vars) - 1; i >= 0; i-- {
			assign[i] = rem % out.card[i]
			rem /= out.card[i]
		}
		for i, id := range f.vars {
			fa[i] = assign[out.posMust(id)]
		}
		for i, id := range g.vars {
			ga[i] = assign[out.posMust(id)]
		}
		out.data[flat] = f.data[f.index(fa)] * g.data[g.index(ga)]
	}
	return out
}

func (f *factor) posMust(id VarID) int {
	p := f.pos(id)
	if p < 0 {
		panic(fmt.Sprintf("bayes: variable %d not in factor scope", id))
	}
	return p
}

// marginalize sums out variable id.
func (n *Network) marginalize(f *factor, id VarID) *factor {
	if f.pos(id) < 0 {
		return f
	}
	var scope []VarID
	for _, v := range f.vars {
		if v != id {
			scope = append(scope, v)
		}
	}
	out := n.makeFactor(scope)
	for i := range out.data {
		out.data[i] = 0
	}
	assign := make([]int, len(f.vars))
	oa := make([]int, len(out.vars))
	for flat := 0; flat < len(f.data); flat++ {
		rem := flat
		for i := len(f.vars) - 1; i >= 0; i-- {
			assign[i] = rem % f.card[i]
			rem /= f.card[i]
		}
		k := 0
		for i, v := range f.vars {
			if v != id {
				oa[k] = assign[i]
				k++
			}
		}
		out.data[out.index(oa)] += f.data[flat]
	}
	return out
}

// reduce zeroes out entries inconsistent with the evidence.
func (f *factor) reduce(ev Evidence) {
	assign := make([]int, len(f.vars))
	for flat := 0; flat < len(f.data); flat++ {
		rem := flat
		for i := len(f.vars) - 1; i >= 0; i-- {
			assign[i] = rem % f.card[i]
			rem /= f.card[i]
		}
		for i, id := range f.vars {
			if want, ok := ev[id]; ok && assign[i] != want {
				f.data[flat] = 0
				break
			}
		}
	}
}

// Query computes the exact posterior P(query | evidence) by variable
// elimination. The result sums to 1 over the query variable's states. It
// returns an error if the evidence is impossible (zero probability).
func (n *Network) Query(query VarID, ev Evidence) ([]float64, error) {
	if int(query) < 0 || int(query) >= len(n.vars) {
		return nil, fmt.Errorf("%w: unknown query variable %d", ErrInvalidNetwork, query)
	}
	for id, s := range ev {
		if int(id) < 0 || int(id) >= len(n.vars) {
			return nil, fmt.Errorf("%w: evidence on unknown variable %d", ErrInvalidNetwork, id)
		}
		if s < 0 || s >= len(n.vars[id].States) {
			return nil, fmt.Errorf("%w: evidence state %d invalid for %q", ErrInvalidNetwork, s, n.vars[id].Name)
		}
	}
	factors := make([]*factor, 0, len(n.vars))
	for _, v := range n.vars {
		f := n.newFactorFromCPT(v)
		f.reduce(ev)
		factors = append(factors, f)
	}
	// Eliminate every non-query, non-evidence variable. Order: fewest
	// states first (cheap heuristic, fine at model scale).
	var order []VarID
	for _, v := range n.vars {
		if v.ID == query {
			continue
		}
		if _, isEv := ev[v.ID]; isEv {
			continue
		}
		order = append(order, v.ID)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := n.vars[order[i]], n.vars[order[j]]
		if len(a.States) != len(b.States) {
			return len(a.States) < len(b.States)
		}
		return a.ID < b.ID
	})
	for _, elim := range order {
		var touching []*factor
		var rest []*factor
		for _, f := range factors {
			if f.pos(elim) >= 0 {
				touching = append(touching, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(touching) == 0 {
			continue
		}
		prod := touching[0]
		for _, f := range touching[1:] {
			prod = n.multiply(prod, f)
		}
		factors = append(rest, n.marginalize(prod, elim))
	}
	// Multiply the remainder and sum out evidence variables.
	prod := factors[0]
	for _, f := range factors[1:] {
		prod = n.multiply(prod, f)
	}
	for _, v := range prod.vars {
		if v != query {
			prod = n.marginalize(prod, v)
		}
	}
	total := 0.0
	for _, x := range prod.data {
		total += x
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: evidence has zero probability", ErrInvalidNetwork)
	}
	out := make([]float64, len(prod.data))
	for i, x := range prod.data {
		out[i] = x / total
	}
	return out, nil
}

// Sample draws a full assignment by forward (ancestral) sampling.
// Variables are sampled in insertion order, which is topological by
// construction.
func (n *Network) Sample(r *rng.Rand) []int {
	out := make([]int, len(n.vars))
	for i, v := range n.vars {
		row := 0
		for _, p := range v.Parents {
			row = row*len(n.vars[p].States) + out[p]
		}
		base := row * len(v.States)
		u := r.Float64()
		choice := len(v.States) - 1
		acc := 0.0
		for s := 0; s < len(v.States); s++ {
			acc += v.CPT[base+s]
			if u < acc {
				choice = s
				break
			}
		}
		out[i] = choice
	}
	return out
}

// Package markov implements continuous-time Markov chains (CTMCs) with
// transient analysis by uniformization and absorbing-state analysis by
// direct linear solve.
//
// The framework uses it for the Madan et al. security quantification model
// (the paper's reference [5]): a state machine Good → Vulnerable →
// Attacked → {SecurityFailed, Detected, ...} whose mean time to absorption
// in a failure state is exactly the Time-To-Security-Failure (TTSF)
// indicator. Having the analytic solution lets the simulation estimators
// in the rest of the framework be validated against ground truth (test E3).
package markov

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadChain reports a structurally invalid chain or query.
var ErrBadChain = errors.New("markov: invalid chain")

// StateID identifies a state within its chain.
type StateID int

// Chain is a finite CTMC under construction or analysis.
type Chain struct {
	names []string
	// rates[i] holds outgoing transitions from state i.
	rates []map[StateID]float64
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// State declares a state and returns its ID.
func (c *Chain) State(name string) StateID {
	c.names = append(c.names, name)
	c.rates = append(c.rates, map[StateID]float64{})
	return StateID(len(c.names) - 1)
}

// Len returns the number of states.
func (c *Chain) Len() int { return len(c.names) }

// Transition adds (or overwrites) a transition from→to with the given
// rate. It panics on self-loops, unknown states or non-positive rates —
// construction errors, not runtime conditions.
func (c *Chain) Transition(from, to StateID, rate float64) *Chain {
	if from == to {
		panic(fmt.Sprintf("markov: self-loop on %q", c.names[from]))
	}
	if int(from) >= len(c.names) || int(to) >= len(c.names) || from < 0 || to < 0 {
		panic("markov: transition references unknown state")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("markov: invalid rate %v", rate))
	}
	c.rates[from][to] = rate
	return c
}

// ExitRate returns the total outgoing rate of s.
func (c *Chain) ExitRate(s StateID) float64 {
	sum := 0.0
	for _, r := range c.rates[s] {
		sum += r
	}
	return sum
}

// Absorbing reports whether s has no outgoing transitions.
func (c *Chain) Absorbing(s StateID) bool { return len(c.rates[s]) == 0 }

// Transient returns the state distribution at time t, starting from the
// given initial distribution, computed by uniformization with error bound
// eps (default 1e-10 when eps <= 0).
func (c *Chain) Transient(initial []float64, t float64, eps float64) ([]float64, error) {
	n := len(c.names)
	if len(initial) != n {
		return nil, fmt.Errorf("%w: initial distribution has %d entries, want %d", ErrBadChain, len(initial), n)
	}
	if t < 0 || math.IsNaN(t) {
		return nil, fmt.Errorf("%w: negative time %v", ErrBadChain, t)
	}
	if eps <= 0 {
		eps = 1e-10
	}
	sum := 0.0
	for _, p := range initial {
		if p < 0 {
			return nil, fmt.Errorf("%w: negative initial probability", ErrBadChain)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: initial distribution sums to %v", ErrBadChain, sum)
	}
	if t == 0 {
		return append([]float64(nil), initial...), nil
	}
	// Uniformization rate: strictly above the max exit rate.
	lambda := 0.0
	for s := 0; s < n; s++ {
		if r := c.ExitRate(StateID(s)); r > lambda {
			lambda = r
		}
	}
	if lambda == 0 { // no transitions anywhere
		return append([]float64(nil), initial...), nil
	}
	lambda *= 1.02
	// DTMC kernel P = I + Q/lambda (row-stochastic).
	// π(t) = Σ_k Poisson(λt, k) · initial·P^k, truncated when the Poisson
	// tail mass falls below eps.
	lt := lambda * t
	// Left-multiply iteratively: v_{k+1} = v_k P.
	v := append([]float64(nil), initial...)
	result := make([]float64, n)
	// Poisson weights computed iteratively in log space to avoid overflow.
	logW := -lt // log weight of k=0
	cum := 0.0
	maxK := int(lt + 10*math.Sqrt(lt) + 50)
	for k := 0; ; k++ {
		w := math.Exp(logW)
		for i := 0; i < n; i++ {
			result[i] += w * v[i]
		}
		cum += w
		if 1-cum < eps || k > maxK {
			break
		}
		// v = v P.
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			if v[i] == 0 {
				continue
			}
			exit := c.ExitRate(StateID(i))
			next[i] += v[i] * (1 - exit/lambda)
			for to, r := range c.rates[i] {
				next[to] += v[i] * r / lambda
			}
		}
		v = next
		logW += math.Log(lt) - math.Log(float64(k+1))
	}
	// Renormalize the truncation remainder.
	total := 0.0
	for _, p := range result {
		total += p
	}
	if total > 0 {
		for i := range result {
			result[i] /= total
		}
	}
	return result, nil
}

// MeanTimeToAbsorption returns, for each transient (non-absorbing) state,
// the expected time to reach ANY absorbing state starting from it, solving
// (−Q_TT) τ = 1 by Gaussian elimination. States in targets (if non-empty)
// restrict which absorbing states count as "absorption": transitions into
// other absorbing states are treated as absorption too, but the chain must
// be able to reach an absorbing state from every transient state,
// otherwise the system is singular and an error is returned.
func (c *Chain) MeanTimeToAbsorption() (map[StateID]float64, error) {
	n := len(c.names)
	var transient []StateID
	for s := 0; s < n; s++ {
		if !c.Absorbing(StateID(s)) {
			transient = append(transient, StateID(s))
		}
	}
	if len(transient) == 0 {
		return map[StateID]float64{}, nil
	}
	idx := map[StateID]int{}
	for i, s := range transient {
		idx[s] = i
	}
	m := len(transient)
	// Build A = −Q_TT and b = 1.
	a := make([][]float64, m)
	b := make([]float64, m)
	for i, s := range transient {
		a[i] = make([]float64, m)
		a[i][i] = c.ExitRate(s)
		for to, r := range c.rates[s] {
			if j, ok := idx[to]; ok {
				a[i][j] -= r
			}
		}
		b[i] = 1
	}
	x, err := solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("%w: chain has transient states that cannot reach absorption: %v", ErrBadChain, err)
	}
	out := map[StateID]float64{}
	for i, s := range transient {
		out[s] = x[i]
	}
	return out, nil
}

// AbsorptionProbabilities returns, for each transient state, the
// probability of eventually being absorbed in the given target state
// (which must be absorbing).
func (c *Chain) AbsorptionProbabilities(target StateID) (map[StateID]float64, error) {
	if !c.Absorbing(target) {
		return nil, fmt.Errorf("%w: target %q is not absorbing", ErrBadChain, c.names[target])
	}
	n := len(c.names)
	var transient []StateID
	for s := 0; s < n; s++ {
		if !c.Absorbing(StateID(s)) {
			transient = append(transient, StateID(s))
		}
	}
	idx := map[StateID]int{}
	for i, s := range transient {
		idx[s] = i
	}
	m := len(transient)
	if m == 0 {
		return map[StateID]float64{}, nil
	}
	a := make([][]float64, m)
	b := make([]float64, m)
	for i, s := range transient {
		a[i] = make([]float64, m)
		a[i][i] = c.ExitRate(s)
		for to, r := range c.rates[s] {
			if j, ok := idx[to]; ok {
				a[i][j] -= r
			} else if to == target {
				b[i] += r
			}
		}
	}
	x, err := solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChain, err)
	}
	out := map[StateID]float64{}
	for i, s := range transient {
		out[s] = x[i]
	}
	return out, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// the system. It mutates the passed slices (callers construct them fresh).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-14 {
			return nil, errors.New("singular system")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * x[k]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// MadanModel builds the Madan et al. (DSN 2002) security model as a CTMC:
//
//	Good → Vulnerable → Attacked → {SecurityFailed | Detected}
//
// with Detected returning to Good after a recovery delay. Rates:
//
//	vulnRate:    discovery/introduction of an exploitable vulnerability;
//	attackRate:  attacker converts the vulnerability into active attack;
//	failRate:    active attack causes the (undetected) security failure;
//	detectRate:  monitoring detects the active attack first;
//	recoverRate: system returns from Detected to Good.
//
// TTSF is the mean time to absorption in SecurityFailed starting in Good.
type MadanModel struct {
	Chain    *Chain
	Good     StateID
	Vuln     StateID
	Attacked StateID
	Failed   StateID
	Detected StateID
}

// NewMadanModel assembles the chain. Failed is the absorbing security
// failure; Detected recovers back to Good (a resilient monitoring system).
func NewMadanModel(vulnRate, attackRate, failRate, detectRate, recoverRate float64) *MadanModel {
	c := NewChain()
	good := c.State("Good")
	vuln := c.State("Vulnerable")
	att := c.State("Attacked")
	failed := c.State("SecurityFailed")
	det := c.State("Detected")
	c.Transition(good, vuln, vulnRate)
	c.Transition(vuln, att, attackRate)
	c.Transition(att, failed, failRate)
	c.Transition(att, det, detectRate)
	c.Transition(det, good, recoverRate)
	return &MadanModel{Chain: c, Good: good, Vuln: vuln, Attacked: att, Failed: failed, Detected: det}
}

// MTTSF returns the mean time to security failure from the Good state.
func (m *MadanModel) MTTSF() (float64, error) {
	mt, err := m.Chain.MeanTimeToAbsorption()
	if err != nil {
		return 0, err
	}
	return mt[m.Good], nil
}

// Package rng provides a deterministic, splittable pseudo-random number
// generator and a family of sampling distributions used by every stochastic
// model in the framework (SAN activities, attack stage latencies, Monte
// Carlo campaigns).
//
// The generator is xoshiro256++ seeded through splitmix64. It is NOT
// cryptographically secure; it is a simulation PRNG chosen for speed,
// quality and the ability to derive independent child streams, which the
// campaign runner uses to make results independent of the number of worker
// goroutines.
package rng

import "math"

// Rand is a deterministic pseudo-random generator (xoshiro256++).
// It is not safe for concurrent use; derive one stream per goroutine
// with Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64.
// Two generators built from the same seed produce identical sequences.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// splitmix64 advances the splitmix state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Digest returns a 64-bit digest of the generator's current state
// WITHOUT advancing it: a deterministic way to seed decorrelated
// side-channel streams (e.g. a campaign's rotation-policy draws) that
// must not perturb the main sampling sequence — two runs share the
// main sequence exactly whether or not the side channel exists.
func (r *Rand) Digest() uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, s := range r.s {
		_, z := splitmix64(h ^ s)
		h = z
	}
	return h
}

// Split derives a statistically independent child generator. The parent
// advances by exactly two draws, so splitting is itself deterministic.
func (r *Rand) Split() *Rand {
	child := &Rand{}
	seed := r.Uint64()
	mix := r.Uint64()
	sm := seed ^ rotl(mix, 17)
	for i := range child.s {
		sm, child.s[i] = splitmix64(sm)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	return child
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b, returning (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	c = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp requires rate > 0")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so Log never sees zero.
	return -math.Log(1-u) / rate
}

// Normal returns a normally distributed value with mean mu and standard
// deviation sigma, using the Marsaglia polar method.
func (r *Rand) Normal(mu, sigma float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mu + sigma*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Weibull returns a Weibull-distributed value with the given shape and
// scale parameters. It panics if either parameter is non-positive.
func (r *Rand) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull requires positive shape and scale")
	}
	u := r.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Triangular samples a triangular distribution on [lo, hi] with mode.
func (r *Rand) Triangular(lo, mode, hi float64) float64 {
	if !(lo <= mode && mode <= hi) || lo >= hi {
		panic("rng: Triangular requires lo <= mode <= hi and lo < hi")
	}
	u := r.Float64()
	fc := (mode - lo) / (hi - lo)
	if u < fc {
		return lo + math.Sqrt(u*(hi-lo)*(mode-lo))
	}
	return hi - math.Sqrt((1-u)*(hi-lo)*(hi-mode))
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0, 1, 2, ...}). It panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	return int(math.Floor(math.Log(1-u) / math.Log(1-p)))
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and normal approximation above 30.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Erlang returns the sum of k independent Exp(rate) samples.
func (r *Rand) Erlang(k int, rate float64) float64 {
	if k <= 0 || rate <= 0 {
		panic("rng: Erlang requires k > 0 and rate > 0")
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += r.Exp(rate)
	}
	return sum
}

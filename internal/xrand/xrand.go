// Package xrand provides deterministic, splittable pseudo-random number
// generation for reproducible parallel simulations.
//
// The paper's exemplars (MD sampling, stochastic SEIR dynamics, dropout
// masks) all require reproducibility across worker counts.
// xrand offers xoshiro256** streams seeded through SplitMix64, plus a
// Split operation that derives statistically independent substreams so
// each goroutine owns its own generator.
package xrand

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding and splitting.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. It is NOT safe for concurrent use;
// use Split to hand a derived stream to each goroutine.
type Rand struct {
	s [4]uint64
	// cached second normal variate from the polar method
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded from the given seed via SplitMix64,
// guaranteeing a well-mixed non-zero internal state for any seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro requires not-all-zero state; SplitMix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fill stores the next len(dst) outputs of Uint64 into dst: the same
// stream, with the state held in registers across the loop.
func (r *Rand) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Split derives a new generator whose stream is statistically independent
// of the receiver's. The receiver is advanced, so successive Splits give
// distinct children; a parent seed therefore fans out into a reproducible
// tree of streams regardless of scheduling.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0,1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0,n) using Lemire's method with a
// rejection step to remove modulo bias. The rejection threshold 2⁶⁴ mod n
// is below n, so a draw whose low word is at least n is accepted without
// it: the division that computes it runs only for the rare draw below n.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method,
// caching the paired variate).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *Rand) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exponential returns an exponential variate with the given rate.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exponential with non-positive rate")
	}
	return r.ExpFloat64() / rate
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Poisson returns a Poisson variate with the given mean. Knuth's method for
// small means, normal approximation with rejection-free rounding for large
// means (mean > 30), which is adequate for simulation workloads.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// PTRS-lite: normal approximation with continuity correction.
		for {
			k := math.Floor(r.Normal(mean, math.Sqrt(mean)) + 0.5)
			if k >= 0 {
				return int(k)
			}
		}
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

// Binomial returns a Binomial(n, p) variate. Direct summation for small n,
// otherwise a normal approximation clamped to [0, n].
func (r *Rand) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	std := math.Sqrt(mean * (1 - p))
	k := int(math.Floor(r.Normal(mean, std) + 0.5))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// Gamma returns a Gamma(shape, scale) variate using the Marsaglia–Tsang
// method, with the Ahrens–Dieter boost for shape < 1.
func (r *Rand) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("xrand: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// boost: Gamma(a) = Gamma(a+1) * U^{1/a}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a Beta(a, b) variate via two Gamma draws.
func (r *Rand) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	return x / (x + y)
}

// Categorical returns an index drawn with probability proportional to
// weights[i]. It panics if weights is empty or sums to a non-positive value.
func (r *Rand) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("xrand: categorical weights must have positive sum")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SampleWithoutReplacement draws k distinct indices from [0, n) uniformly.
// It panics if k > n.
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("xrand: sample size exceeds population")
	}
	if k <= 0 {
		return nil
	}
	// Partial Fisher–Yates over an index array.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	out := make([]int, k)
	copy(out, p[:k])
	return out
}

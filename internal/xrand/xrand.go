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

// gamma is SplitMix64's state increment, the golden-ratio constant.
const gamma = 0x9e3779b97f4a7c15

// mix is SplitMix64's output finalizer: a bijective avalanche of z.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding and splitting.
func splitMix64(state *uint64) uint64 {
	*state += gamma
	return mix(*state)
}

// Hash returns output i of the SplitMix64 stream seeded at seed, without
// the stream: a pure function of its two arguments, so values keyed by
// indices (Hash(Hash(seed, a), b) for two of them, with no bound on
// either) do not depend on the order or the goroutine that asks for them.
func Hash(seed, i uint64) uint64 {
	return mix(seed + (i+1)*gamma)
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
		r.s[0] = gamma
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

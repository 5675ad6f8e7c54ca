package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

// TestFillIsTheUint64Stream: Fill hands out the words Uint64 would have,
// and leaves the generator where they would have left it.
func TestFillIsTheUint64Stream(t *testing.T) {
	a, b := New(42), New(42)
	for _, n := range []int{0, 1, 7, 384} {
		words := make([]uint64, n)
		a.Fill(words)
		for i, w := range words {
			if want := b.Uint64(); w != want {
				t.Fatalf("Fill(%d) word %d = %x, Uint64 gives %x", n, i, w, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fill left the generator somewhere else")
	}
}

// TestHashIsTheSplitMixStream: Hash(seed, i) is output i of the
// SplitMix64 stream seeded at seed, and its low bit is a fair coin over
// consecutive indices.
func TestHashIsTheSplitMixStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		state, ones := seed, 0
		for i := uint64(0); i < 4096; i++ {
			if got, want := Hash(seed, i), splitMix64(&state); got != want {
				t.Fatalf("Hash(%d, %d) = %x, the stream gives %x", seed, i, got, want)
			}
			ones += int(Hash(seed, i) & 1)
		}
		if ones < 1848 || ones > 2248 { // ±6.25 σ
			t.Fatalf("seed %d: %d of 4096 low bits set", seed, ones)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincided %d/100 times", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded stream produced only %d distinct values", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits coincided %d/1000 times", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() []uint64 {
		p := New(9)
		a := p.Split()
		b := p.Split()
		return []uint64{a.Uint64(), a.Uint64(), b.Uint64(), b.Uint64()}
	}
	x, y := mk(), mk()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("split tree not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(steps uint8) bool {
		for i := 0; i < int(steps); i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %.4f, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// uint64nDivide is Uint64n computing its rejection threshold, a 64-bit
// division, before every draw.
func uint64nDivide(r *Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// TestUint64nMatchesDivideFirst: Uint64n, which divides only for a draw it
// may reject, returns what uint64nDivide returns from the same stream and
// leaves the stream where it leaves it, over 10⁵ draws: n from 1 to 5 000,
// every power of two, and n near 2⁶³, where up to half the draws are
// rejected.
func TestUint64nMatchesDivideFirst(t *testing.T) {
	var ns []uint64
	for n := uint64(1); n <= 5000; n++ {
		ns = append(ns, n)
	}
	for s := 0; s < 64; s++ {
		ns = append(ns, 1<<s)
	}
	for d := uint64(1); d <= 8; d++ {
		ns = append(ns, 1<<63-d, 1<<63+d)
	}
	ns = append(ns, 3<<62, 1<<64-1)
	got, want := New(23), New(23)
	for draws := 0; draws < 100000; {
		for _, n := range ns {
			if g, w := got.Uint64n(n), uint64nDivide(want, n); g != w {
				t.Fatalf("draw %d: Uint64n(%d) = %d, dividing first gives %d", draws, n, g, w)
			}
			draws++
		}
	}
	if got.Uint64() != want.Uint64() {
		t.Fatal("the two left the stream at different words")
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %f", i, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("normal mean %.4f, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("normal variance %.4f, want ~4", variance)
	}
}

// The samplers below have no caller outside this file: the tests keep
// the stream's transforms to their textbook moments.

// exponential is an exponential variate with the given rate.
func (r *Rand) exponential(rate float64) float64 {
	for {
		if u := r.Float64(); u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// binomial is a Binomial(n, p) variate: direct summation for small n,
// otherwise a normal approximation clamped to [0, n].
func (r *Rand) binomial(n int, p float64) int {
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
	k := int(math.Floor(r.Normal(mean, math.Sqrt(mean*(1-p))) + 0.5))
	return min(max(k, 0), n)
}

// gamma is a Gamma(shape, scale) variate by the Marsaglia–Tsang method,
// with the Ahrens–Dieter boost for shape < 1.
func (r *Rand) gamma(shape, scale float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.gamma(shape+1, scale) * math.Pow(u, 1/shape)
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
		if u < 1-0.0331*x*x*x*x || u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// beta is a Beta(a, b) variate via two gamma draws.
func (r *Rand) beta(a, b float64) float64 {
	x := r.gamma(a, 1)
	return x / (x + r.gamma(b, 1))
}

// categorical is an index drawn with probability proportional to
// weights[i]; it panics on a negative weight or a non-positive sum.
func (r *Rand) categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: categorical weights must have positive sum")
	}
	u := r.Float64() * total
	for i, w := range weights {
		if u -= w; u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func TestExponentialMean(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.exponential(2)
		if x < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("exponential(2) mean %.4f, want ~0.5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(23)
	for _, mean := range []float64{0.5, 4, 50} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			k := r.Poisson(mean)
			if k < 0 {
				t.Fatal("negative Poisson variate")
			}
			sum += k
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 4*math.Sqrt(mean/float64(n))+0.05 {
			t.Fatalf("Poisson(%g) mean %.4f", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if got := New(1).Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(29)
	for _, tc := range []struct {
		n int
		p float64
	}{{20, 0.3}, {500, 0.1}, {1000, 0.9}} {
		const trials = 20000
		sum := 0
		for i := 0; i < trials; i++ {
			k := r.binomial(tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d,%g)=%d out of range", tc.n, tc.p, k)
			}
			sum += k
		}
		mean := float64(sum) / trials
		want := float64(tc.n) * tc.p
		if math.Abs(mean-want) > 0.05*want+0.5 {
			t.Fatalf("Binomial(%d,%g) mean %.3f want %.3f", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(31)
	if r.binomial(10, 0) != 0 {
		t.Fatal("Binomial(n,0) != 0")
	}
	if r.binomial(10, 1) != 10 {
		t.Fatal("Binomial(n,1) != n")
	}
	if r.binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0,p) != 0")
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(37)
	for _, tc := range []struct{ shape, scale float64 }{{0.5, 1}, {2, 3}, {9, 0.5}} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := r.gamma(tc.shape, tc.scale)
			if x < 0 {
				t.Fatal("negative gamma variate")
			}
			sum += x
		}
		mean := sum / n
		want := tc.shape * tc.scale
		if math.Abs(mean-want) > 0.05*want+0.02 {
			t.Fatalf("Gamma(%g,%g) mean %.4f want %.4f", tc.shape, tc.scale, mean, want)
		}
	}
}

func TestBetaRange(t *testing.T) {
	r := New(41)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		x := r.beta(2, 5)
		if x < 0 || x > 1 {
			t.Fatalf("Beta variate %g out of [0,1]", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-2.0/7.0) > 0.01 {
		t.Fatalf("Beta(2,5) mean %.4f want %.4f", mean, 2.0/7.0)
	}
}

func TestCategorical(t *testing.T) {
	r := New(43)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("category ratio %.3f, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).categorical(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(47)
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(53)
	s := r.SampleWithoutReplacement(10, 5)
	if len(s) != 5 {
		t.Fatalf("sample size %d, want 5", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid or duplicate sample %d", v)
		}
		seen[v] = true
	}
	if got := r.SampleWithoutReplacement(4, 0); got != nil {
		t.Fatalf("k=0 sample should be nil, got %v", got)
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized sample did not panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestRange(t *testing.T) {
	r := New(59)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range value %g out of [-2,5)", v)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(61)
	xs := []int{1, 2, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset sum %d -> %d", sum, got)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(67)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) frequency %.4f", f)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

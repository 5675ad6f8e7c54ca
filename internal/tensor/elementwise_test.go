package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// As in kern_test.go, each kernel is checked through the function that
// dispatches to it, against its reference loop: with -tags purego both
// sides are the reference and the accuracy tests are what is left.

// ewEdges are the inputs where Tanh and Sigmoid change regime: the blend
// point, the saturation point, the clamps, each with its neighbours.
func ewEdges() []float64 {
	var e []float64
	for _, c := range []float64{tanhSmall, tanhClamp / 2, 19.061547465398498, 18.7, 36.7, sigmoidHi, -sigmoidLo, 709.78, 745.2, 0x1p-27, 0x1p-511, 0x1p-1022} {
		for _, v := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1))} {
			e = append(e, v, -v)
		}
	}
	return e
}

// fillEW is fillKern with the edges mixed in and a spread of magnitudes
// that puts about half the finite values on each side of the blend point.
func fillEW(rng *xrand.Rand, s []float64, special bool) {
	edges := ewEdges()
	fillKern(rng, s, special)
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = rng.Range(-1.25, 1.25)
		case 1:
			if special {
				s[i] = edges[rng.Intn(len(edges))]
			}
		}
	}
}

func checkUnary(t *testing.T, what string, kernel, ref func([]float64), z []float64, off int) {
	t.Helper()
	got := append(make([]float64, off), z...)[off:]
	want := append([]float64(nil), z...)
	kernel(got)
	ref(want)
	checkSame(t, what, got, want)
}

func TestActivationsMatchReference(t *testing.T) {
	rng := xrand.New(0x5eed11)
	for _, n := range kernLens() {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				z := make([]float64, n)
				fillEW(rng, z, special)
				checkUnary(t, "Tanh", Tanh, tanhRef, z, off)
				checkUnary(t, "Sigmoid", Sigmoid, sigmoidRef, z, off)
			}
		}
	}
	// The tanh kernel skips e^u for a vector none of whose lanes is at or
	// past the blend point (a NaN is not): such vectors, then one lane that
	// is, in each position.
	small := []float64{0.1, -0.6249, math.NaN(), 0x1p-1040, math.Copysign(0, -1), 0.3, math.Nextafter(tanhSmall, 0), -0.01}
	checkUnary(t, "Tanh", Tanh, tanhRef, small, 0)
	for lane := range small {
		z := append([]float64(nil), small...)
		z[lane] = []float64{tanhSmall, -0.7, 25, math.Inf(-1)}[lane%4]
		checkUnary(t, "Tanh", Tanh, tanhRef, z, 0)
	}
	// Every special and every edge in every lane.
	all := append(append([]float64(nil), specials...), ewEdges()...)
	for lane := 0; lane < 4; lane++ {
		z := append(make([]float64, lane), all...)
		checkUnary(t, "Tanh", Tanh, tanhRef, z, 0)
		checkUnary(t, "Sigmoid", Sigmoid, sigmoidRef, z, 0)
	}
}

// ewGrid calls f on the accuracy grid: 10⁶+1 even steps over [-20, 20] and
// ±2^e for e = -1074 … -20, in increasing order.
func ewGrid(f func(x float64)) {
	for e := -20; e >= -1074; e-- {
		f(-math.Ldexp(1, e))
	}
	f(0)
	for e := -1074; e <= -20; e++ {
		f(math.Ldexp(1, e))
	}
	const steps = 1000000
	for i := 0; i <= steps; i++ {
		f(-20 + 40*float64(i)/steps)
	}
}

// relTol is the accuracy contract: the relative error against the math
// package's value, which itself is good to an ulp or two.
const relTol = 1e-14

func TestTanhAccuracy(t *testing.T) {
	var xs []float64
	ewGrid(func(x float64) { xs = append(xs, x) })
	ys := append([]float64(nil), xs...)
	Tanh(ys)
	mirror := make([]float64, len(xs))
	for i, x := range xs {
		mirror[i] = -x
	}
	Tanh(mirror)
	worst := 0.0
	for i, x := range xs {
		y, want := ys[i], math.Tanh(x)
		if want == 0 {
			if math.Float64bits(y) != math.Float64bits(want) {
				t.Fatalf("Tanh(%g) = %g, want %g", x, y, want)
			}
		} else if e := math.Abs((y - want) / want); e > relTol {
			t.Fatalf("Tanh(%g) = %g, math.Tanh %g, relative error %g", x, y, want, e)
		} else if e > worst {
			worst = e
		}
		if math.Abs(y) > 1 {
			t.Fatalf("|Tanh(%g)| = %g > 1", x, y)
		}
		if math.Float64bits(mirror[i]) != math.Float64bits(-y) {
			t.Fatalf("Tanh(%g) = %g but Tanh(%g) = %g", x, y, -x, mirror[i])
		}
	}
	t.Logf("worst relative error %.3g over %d points", worst, len(xs))
	// Monotone over each half of the grid, which is sorted: the power-of-two
	// points, then the even steps.
	split := 2*(1074-20+1) + 1
	for i := 1; i < len(xs); i++ {
		if i != split && ys[i] < ys[i-1] {
			t.Fatalf("Tanh not monotone: %g at %g after %g at %g", ys[i], xs[i], ys[i-1], xs[i-1])
		}
	}
}

func TestTanhSpecialValues(t *testing.T) {
	nz := math.Copysign(0, -1)
	in := []float64{0, nz, math.Inf(1), math.Inf(-1), 20, -20, 19.2, -19.2, math.MaxFloat64, math.SmallestNonzeroFloat64, -0x1p-1040, math.NaN()}
	want := []float64{0, nz, 1, -1, 1, -1, 1, -1, 1, math.SmallestNonzeroFloat64, -0x1p-1040, math.NaN()}
	for _, f := range []func([]float64){Tanh, tanhRef} {
		z := append([]float64(nil), in...)
		f(z)
		checkSame(t, "Tanh special values", z, want)
	}
	// Just under the saturation point the result is the last double below 1.
	z := []float64{18.8, 0, 0, 0}
	Tanh(z)
	if z[0] != math.Nextafter(1, 0) {
		t.Fatalf("Tanh(18.8) = %x, want the double below 1", math.Float64bits(z[0]))
	}
}

func TestSigmoidAccuracy(t *testing.T) {
	var xs []float64
	ewGrid(func(x float64) { xs = append(xs, x) })
	ys := append([]float64(nil), xs...)
	Sigmoid(ys)
	worst := 0.0
	for i, x := range xs {
		want := 1 / (1 + math.Exp(-x))
		e := math.Abs((ys[i] - want) / want)
		if !(e <= relTol) {
			t.Fatalf("Sigmoid(%g) = %g, want %g, relative error %g", x, ys[i], want, e)
		}
		worst = math.Max(worst, e)
		if i > 0 && xs[i] > xs[i-1] && ys[i] < ys[i-1] {
			t.Fatalf("Sigmoid not monotone at %g", x)
		}
	}
	t.Logf("worst relative error %.3g over %d points", worst, len(xs))
	in := []float64{math.Inf(1), math.Inf(-1), 800, -800, 0, math.NaN(), 40, -745}
	want := []float64{1, 0, 1, 0, 0.5, math.NaN(), 1, 0}
	for _, f := range []func([]float64){Sigmoid, sigmoidRef} {
		z := append([]float64(nil), in...)
		f(z)
		checkSame(t, "Sigmoid special values", z, want)
	}
}

// TestTanhBackwardMatchesReference holds TanhBackward to its reference loop
// for every width the thin-shape kernels are held at, 1 to 33 rows, with no
// mask and with one, NaN, ±0 and ±Inf among g, y and the mask, and a gb
// that holds garbage on entry.
func TestTanhBackwardMatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed15)
	for _, w := range thinWidths() {
		for rows := 1; rows <= 33; rows++ {
			n := rows * w
			g, y := make([]float64, n), make([]float64, n)
			special := rows%2 == 1
			fillKern(rng, g, special)
			fillEW(rng, y, special)
			Tanh(y)
			if special { // y is a tanh, so |y| <= 1: plant the specials after it
				for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
					y[rng.Intn(n)] = v
				}
			}
			var mask []float64
			if rows%3 != 0 {
				mask = make([]float64, n)
				for i := range mask {
					mask[i] = []float64{0, 1 / 0.9}[rng.Intn(2)]
				}
				if special {
					fillKern(rng, mask[:n/2], true)
				}
			}
			gotD, wantD := make([]float64, n), make([]float64, n)
			gotB, wantB := make([]float64, w), make([]float64, w)
			fillKern(rng, gotB, true)
			copy(wantB, gotB)
			TanhBackward(gotD, gotB, g, y, mask)
			tanhBackwardRef(wantD, wantB, g, y, mask, 0)
			what := fmt.Sprintf("TanhBackward %dx%d mask %t", rows, w, mask != nil)
			checkSame(t, what+" delta", gotD, wantD)
			checkSame(t, what+" gb", gotB, wantB)
		}
	}
}

// adamCase runs AdamStep and adamStepRef on copies of the same state.
func adamCase(t *testing.T, val, grad, m, v []float64, h [6]float64, off int) {
	t.Helper()
	shift := func(s []float64) []float64 { return append(make([]float64, off), s...)[off:] }
	gv, gm, gvv := shift(val), shift(m), shift(v)
	wv, wm, wvv := shift(val), shift(m), shift(v)
	AdamStep(gv, shift(grad), gm, gvv, h[0], h[1], h[2], h[3], h[4], h[5])
	adamStepRef(wv, grad, wm, wvv, h[0], h[1], h[2], h[3], h[4], h[5])
	checkSame(t, "AdamStep val", gv, wv)
	checkSame(t, "AdamStep m", gm, wm)
	checkSame(t, "AdamStep v", gvv, wvv)
}

func TestAdamStepMatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed12)
	// Step 1 and step 1000 of the default optimizer, then hyperparameters
	// no one would choose.
	hypers := [][6]float64{
		{1e-3, 0.9, 0.999, 1e-8, 1 / (1 - 0.9), 1 / (1 - 0.999)},
		{1e-3, 0.9, 0.999, 1e-8, 1, 1 / (1 - math.Pow(0.999, 1000))},
		{0.5, 0, 0, 0, 1, 1},
		{1e-2, 0.5, 0.25, 1e300, 7, 1e-300},
	}
	for _, n := range kernLens() {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				val, grad := make([]float64, n), make([]float64, n)
				m, v := make([]float64, n), make([]float64, n)
				fillKern(rng, val, special)
				fillKern(rng, grad, special)
				fillKern(rng, m, special)
				fillKern(rng, v, false)
				for i := range v {
					v[i] = math.Abs(v[i]) // a second moment is never negative
				}
				adamCase(t, val, grad, m, v, hypers[rng.Intn(len(hypers))], off)
			}
		}
	}
	// Rows chosen for the denominator: v = 0 with g = 0 (0/eps), v = 0 and
	// eps = 0 (0/0), eps dominating, a gradient whose square overflows,
	// one whose square underflows, a denormal second moment.
	grad := []float64{0, 0, 1e-12, 1e200, 1e-200, 0x1p-530, -3, 1e200}
	v := []float64{0, 0, 1e-30, 1, 0, 0x1p-1060, 4, math.MaxFloat64}
	val := []float64{1, -1, 0.5, 2, 3, -4, 5, 6}
	m := make([]float64, len(val))
	for _, h := range hypers {
		adamCase(t, val, grad, m, v, h, 0)
	}
}

func dropoutCase(t *testing.T, x []float64, words []uint64, keep uint64, scale float64, off int) {
	t.Helper()
	n := len(x)
	gd, gm := make([]float64, off+n)[off:], make([]float64, off+n)[off:]
	wd, wm := make([]float64, n), make([]float64, n)
	DropoutMask(gd, x, gm, words, keep, scale)
	dropoutMaskRef(wd, x, wm, words, keep, scale)
	checkSame(t, "DropoutMask dst", gd, wd)
	checkSame(t, "DropoutMask mask", gm, wm)
	for i, m := range wm {
		lane := words[i/2] >> (32 * (i % 2)) & 0xFFFFFFFF
		if (lane < keep && m != scale) || (lane >= keep && m != 0) {
			t.Fatalf("unit %d: lane %d, keep %d, multiplier %g", i, lane, keep, m)
		}
	}
}

func TestDropoutMaskMatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed13)
	const thr = 3865470566 // uint64(0.9 * 2^32)
	keeps := []uint64{0, 1, 1 << 31, thr, 1<<32 - 1, 1 << 32}
	for _, n := range kernLens() {
		for off := 0; off < 4; off++ {
			x := make([]float64, n)
			fillKern(rng, x, off%2 == 1)
			words := make([]uint64, off+(n+1)/2)[off:]
			for i := range words {
				words[i] = rng.Uint64()
				switch rng.Intn(8) { // lanes on the threshold and at the extremes
				case 0:
					words[i] = thr | (thr-1)<<32
				case 1:
					words[i] = 0xFFFFFFFF | 1<<31<<32
				}
			}
			dropoutCase(t, x, words, keeps[rng.Intn(len(keeps))], 1/(1-0.1), off)
		}
	}
}

func TestDropoutMaskKeepRate(t *testing.T) {
	const units = 1000000
	rng := xrand.New(0x5eed14)
	x := make([]float64, units)
	for i := range x {
		x[i] = 1
	}
	words := make([]uint64, units/2)
	dst, mask := make([]float64, units), make([]float64, units)
	for _, p := range []float64{0.1, 0.5, 0.03} {
		for i := range words {
			words[i] = rng.Uint64()
		}
		keep := uint64((1 - p) * (1 << 32))
		DropoutMask(dst, x, mask, words, keep, 1/(1-p))
		kept := 0
		for _, m := range mask {
			if m != 0 {
				kept++
			}
		}
		sigma := math.Sqrt(units * p * (1 - p))
		if d := math.Abs(float64(kept) - units*(1-p)); d > 4*sigma {
			t.Fatalf("p=%g: %d of %d units kept, %g away from the mean, 4σ = %g", p, kept, units, d, 4*sigma)
		}
	}
}

// A zero-length slice must return before any kernel takes &s[0].
func TestElementwiseZeroLength(t *testing.T) {
	var none []float64
	Tanh(none)
	Sigmoid(none)
	AdamStep(none, none, none, none, 1e-3, 0.9, 0.999, 1e-8, 10, 1000)
	DropoutMask(none, none, none, nil, 1, 2)
	Tanh([]float64{})
	DropoutMask([]float64{}, []float64{}, []float64{}, []uint64{}, 1, 2)
}

func FuzzTanh(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		checkUnary(t, "Tanh", Tanh, tanhRef, fuzzFloats(data), int(off%4))
	})
}

func FuzzSigmoid(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		checkUnary(t, "Sigmoid", Sigmoid, sigmoidRef, fuzzFloats(data), int(off%4))
	})
}

func FuzzAdamStep(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		s := fuzzFloats(data)
		n := (len(s) - 6) / 4
		if n < 0 {
			return
		}
		var h [6]float64
		copy(h[:], s[4*n:])
		adamCase(t, s[:n], s[n:2*n], s[2*n:3*n], s[3*n:4*n], h, int(off%4))
	})
}

func FuzzDropoutMask(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		x := fuzzFloats(data)
		words := make([]uint64, (len(x)+1)/2)
		for i := range words { // the data again, as the random stream
			words[i] = math.Float64bits(x[i]) ^ math.Float64bits(x[len(x)-1-i])<<7
		}
		keep := uint64(off) << 24
		if off == 255 {
			keep = 1 << 32
		}
		dropoutCase(t, x, words, keep, 1.25, int(off%4))
	})
}

// BenchmarkElementwise times each element-wise kernel against its
// reference loop on one slice of n elements: 24 is a serving tenant's
// hidden row, 768 its 32-row training batch, 8192 the wide net's 64 x 128
// (tanhback takes them as rows of 24, 24 and 128).
// ns/elem is ns/op over n. The libm rows are math.Tanh, which is what the
// reference replaces on a target without the assembly; the -small rows
// feed tanh inputs that stay under its blend point. scripts/bench.sh
// runs it from here because the reference loops are not exported.
func BenchmarkElementwise(b *testing.B) {
	rng := xrand.New(0x6e57)
	type variant struct {
		name string
		run  func(n int) func()
	}
	// Pre-activations with standard deviation sd: at 1.5 two lanes in three
	// are past tanh's blend point and every vector needs e^u; at 0.2, which
	// is nearer what the repo's trained nets feed it, hardly any does.
	unaryAt := func(f func([]float64), sd float64) func(n int) func() {
		return func(n int) func() {
			src, z := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = rng.Normal(0, sd)
			}
			return func() { copy(z, src); f(z) }
		}
	}
	unary := func(f func([]float64)) func(n int) func() { return unaryAt(f, 1.5) }
	adam := func(f func(val, grad, m, v []float64, lr, beta1, beta2, eps, invC1, invC2 float64)) func(n int) func() {
		return func(n int) func() {
			val, grad, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range grad {
				grad[i] = rng.Normal(0, 1e-2)
			}
			return func() { f(val, grad, m, v, 1e-3, 0.9, 0.999, 1e-8, 1.5, 40) }
		}
	}
	dropout := func(f func(dst, x, mask []float64, words []uint64, keep uint64, scale float64)) func(n int) func() {
		return func(n int) func() {
			dst, x, mask := make([]float64, n), make([]float64, n), make([]float64, n)
			words := make([]uint64, (n+1)/2)
			for i := range words {
				words[i] = rng.Uint64()
			}
			return func() { f(dst, x, mask, words, 3865470566, 1/0.9) }
		}
	}
	// The backward sweep of a masked tanh layer over n/w rows of w: a
	// serving tenant's hidden 24, the wide net's 128 at n = 8192.
	tanhBack := func(f func(delta, gb, g, y, mask []float64)) func(n int) func() {
		return func(n int) func() {
			w := 24
			if n%w != 0 {
				w = 128
			}
			delta, gb, g, y, mask := make([]float64, n), make([]float64, w), make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range g {
				g[i], y[i], mask[i] = rng.Normal(0, 1e-2), rng.Range(-1, 1), []float64{0, 1 / 0.9}[rng.Intn(2)]
			}
			return func() { f(delta, gb, g, y, mask) }
		}
	}
	tanhBackRef := func(delta, gb, g, y, mask []float64) { tanhBackwardRef(delta, gb, g, y, mask, 0) }
	libm := func(z []float64) {
		for i, v := range z {
			z[i] = math.Tanh(v)
		}
	}
	for _, k := range []struct {
		name     string
		variants []variant
	}{
		{"tanh", []variant{{"vector", unary(Tanh)}, {"reference", unary(tanhRef)}, {"libm", unary(libm)},
			{"vector-small", unaryAt(Tanh, 0.2)}, {"reference-small", unaryAt(tanhRef, 0.2)}, {"libm-small", unaryAt(libm, 0.2)}}},
		{"sigmoid", []variant{{"vector", unary(Sigmoid)}, {"reference", unary(sigmoidRef)}}},
		{"tanhback", []variant{{"vector", tanhBack(TanhBackward)}, {"reference", tanhBack(tanhBackRef)}}},
		{"adam", []variant{{"vector", adam(AdamStep)}, {"reference", adam(adamStepRef)}}},
		{"dropout", []variant{{"vector", dropout(DropoutMask)}, {"reference", dropout(dropoutMaskRef)}}},
	} {
		for _, n := range []int{24, 768, 8192} {
			for _, v := range k.variants {
				run := v.run(n)
				b.Run(fmt.Sprintf("%s/n=%d/%s", k.name, n, v.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
				})
			}
		}
	}
}

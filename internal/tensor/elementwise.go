package tensor

import "math"

// Element-wise slice kernels: the activations, tanh's backward sweep, the
// Adam update and the dropout mask sweep. Each has a Go reference loop
// (…Ref) and, on amd64, an AVX2 twin in elementwise_amd64.s that does the
// reference's operations in the reference's order with separately rounded
// multiplies and adds, so the two give the same bits; the assembly takes
// the whole 4-vectors of a slice (of each row, for tanh's backward sweep)
// and the reference its tail, and the reference is the only path
// where useAVX2 is false. Every product that feeds a sum is wrapped in
// float64(), which forbids the compiler to fuse the pair on targets that
// have a fused multiply-add: the bits are the same on every platform.
//
// Accuracy, not identity with math.Tanh/math.Exp, is the contract (held
// by elementwise_test.go): relative error of Tanh and Sigmoid under 1e-14
// (measured: 4e-16), Tanh odd, monotone, |Tanh| <= 1 with exact ±1
// from |x| ≈ 19.1, Tanh(±0) = ±0, NaN in gives NaN out.

// Constants of the shared exp core. e^u = 2^k · e^r with k = round(u·log2e)
// and r = u − k·ln2 taken in two pieces (ln2Hi has 32 significant bits, so
// k·ln2Hi is exact for |k| < 2^20); |r| <= ln2/2 and e^r = 1 + r + r²·Q(r),
// Q the degree-9 minimax fit of (e^r − 1 − r)/r² on |r| <= 0.347 (Remez,
// truncation error under 2e-17 of e^r).
const (
	log2e = 1.44269504088896338700e+00
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
	// Adding and subtracting 1.5·2^52 rounds to the nearest integer
	// (ties to even) and leaves that integer in the sum's low mantissa bits.
	roundMagic = 1.5 * (1 << 52)

	expC2  = 5.00000000000000111022e-01
	expC3  = 1.66666666666666740682e-01
	expC4  = 4.16666666666237403560e-02
	expC5  = 8.33333333332210608735e-03
	expC6  = 1.38888889174081293400e-03
	expC7  = 1.98412698869020106282e-04
	expC8  = 2.48015209945964485978e-05
	expC9  = 2.75572419856008152153e-06
	expC10 = 2.76202314913509973711e-07
	expC11 = 2.51101819820067434358e-08
)

// Constants of Tanh. Below tanhSmall it is the Cephes rational
// x − x·s·P(s)/Q(s), s = x² (the one math.Tanh uses, P negated), which
// keeps full relative accuracy down to denormals; from tanhSmall on it is
// 1 − 2/(e^2|x| + 1), with 2|x| clamped at tanhClamp, past which the
// quotient is under half an ulp of 1 and the result is exactly 1.
const (
	tanhSmall = 0.625
	tanhClamp = 40.0

	tanhP0 = 9.64399179425052238628e-01
	tanhP1 = 9.92877231001918586564e+01
	tanhP2 = 1.61468768441708447952e+03
	tanhQ0 = 1.12811678491632931402e+02
	tanhQ1 = 2.23548839060100448583e+03
	tanhQ2 = 4.84406305325125486048e+03
)

// Sigmoid clamps −x to [sigmoidLo, sigmoidHi]: at sigmoidHi the core's 2^k
// is +Inf and the result 0, at sigmoidLo e^u is under half an ulp of 1 and
// the result 1.
const (
	sigmoidLo = -708.0
	sigmoidHi = 710.0
)

// expCore returns e^u for u in [sigmoidLo, sigmoidHi]; NaN gives NaN.
func expCore(u float64) float64 {
	t := float64(u*log2e) + roundMagic
	k := t - roundMagic
	r := (u - float64(k*ln2Hi)) - float64(k*ln2Lo)
	// Q(r) by Estrin's scheme: five independent pairs, then powers of r².
	q0 := float64(expC3*r) + expC2
	q1 := float64(expC5*r) + expC4
	q2 := float64(expC7*r) + expC6
	q3 := float64(expC9*r) + expC8
	q4 := float64(expC11*r) + expC10
	r2 := r * r
	r4 := r2 * r2
	lo := float64(q1*r2) + q0
	hi := float64(q3*r2) + q2
	hi = float64(q4*r4) + hi
	q := float64(hi*r4) + lo
	p := (float64(q*r2) + r) + 1
	// 2^k: k + 1023 moved from the low mantissa bits of t to the exponent.
	return p * math.Float64frombits((math.Float64bits(t)+1023)<<52)
}

// tanhRef is the reference loop of Tanh.
func tanhRef(z []float64) {
	for i, x := range z {
		a := math.Abs(x)
		var y float64
		if a >= tanhSmall {
			u := a + a
			if !(u < tanhClamp) {
				u = tanhClamp
			}
			y = 1 - 2/(expCore(u)+1)
		} else { // NaN lands here and comes out of the arithmetic
			s := a * a
			p := float64((float64(tanhP0*s)+tanhP1)*s) + tanhP2
			q := float64((float64((s+tanhQ0)*s)+tanhQ1)*s) + tanhQ2
			y = a - float64(float64(a*s)*p)/q
		}
		z[i] = math.Copysign(y, x)
	}
}

// sigmoidRef is the reference loop of Sigmoid.
func sigmoidRef(z []float64) {
	for i, x := range z {
		u := -x
		if sigmoidHi < u { // false for NaN, which passes through
			u = sigmoidHi
		}
		if sigmoidLo > u {
			u = sigmoidLo
		}
		z[i] = 1 / (expCore(u) + 1)
	}
}

// Tanh replaces every element of z by its hyperbolic tangent.
func Tanh(z []float64) {
	n := 0
	if useAVX2 && len(z) >= 4 {
		n = len(z) &^ 3
		tanhAVX2(&z[0], n)
	}
	tanhRef(z[n:])
}

// Sigmoid replaces every element of z by 1/(1 + e^−z).
func Sigmoid(z []float64) {
	n := 0
	if useAVX2 && len(z) >= 4 {
		n = len(z) &^ 3
		sigmoidAVX2(&z[0], n)
	}
	sigmoidRef(z[n:])
}

// tanhBackwardRef is the reference loop of TanhBackward over the columns
// from on of every row.
func tanhBackwardRef(delta, gb, g, y, mask []float64, from int) {
	w := len(gb)
	acc := gb[from:]
	for j := range acc {
		acc[j] = 0
	}
	for lo := 0; lo < len(delta); lo += w {
		d, gr, yr := delta[lo+from:lo+w], g[lo+from:lo+w], y[lo+from:lo+w]
		if mask != nil {
			for j, m := range mask[lo+from : lo+w] {
				d[j] = gr[j] * m
			}
			gr = d
		}
		gr, yr, acc := gr[:len(d)], yr[:len(d)], acc[:len(d)] // bounds-check elimination hints
		for j := range d {
			v := gr[j] * (1 - float64(yr[j]*yr[j]))
			d[j], acc[j] = v, acc[j]+v
		}
	}
}

// TanhBackward is the element-wise half of a tanh layer's backward step
// over a batch of len(gb)-wide rows: delta = (g ⊙ mask) ⊙ (1 − y·y), with
// y = tanh of the pre-activations, and gb = the column sums of delta, added
// row by row. delta, g, y and a non-nil mask have one length, a whole
// number of rows; a nil mask is all ones. The assembly takes the whole
// 4-vectors of every row, the reference the last len(gb)%4 columns.
func TanhBackward(delta, gb, g, y, mask []float64) {
	g, y = g[:len(delta)], y[:len(delta)]
	n := 0
	if useAVX2 && len(gb) >= 4 && len(delta) > 0 {
		var m *float64
		if mask != nil {
			m = &mask[:len(delta)][0]
		}
		n = len(gb) &^ 3
		tanhBackwardAVX2(&delta[0], &gb[0], &g[0], &y[0], m, len(delta)/len(gb), len(gb), n)
	}
	if n < len(gb) {
		tanhBackwardRef(delta, gb, g, y, mask, n)
	}
}

// adamStepRef is the reference loop of AdamStep.
func adamStepRef(val, grad, m, v []float64, lr, beta1, beta2, eps, invC1, invC2 float64) {
	grad = grad[:len(val)] // bounds-check elimination hints
	m = m[:len(val)]
	v = v[:len(val)]
	g1, g2 := 1-beta1, 1-beta2
	for k := range val {
		g := grad[k]
		mk := float64(beta1*m[k]) + float64(g1*g)
		vk := float64(beta2*v[k]) + float64(float64(g2*g)*g)
		m[k] = mk
		v[k] = vk
		val[k] -= lr * (mk * invC1) / (math.Sqrt(vk*invC2) + eps)
	}
}

// AdamStep applies one fused Adam update to val from grad: the moment
// averages m and v, their bias corrections (invC1 = 1/(1−beta1^t), invC2
// likewise) and the parameter step in a single sweep, one square root and
// one division an element. All four slices have val's length.
func AdamStep(val, grad, m, v []float64, lr, beta1, beta2, eps, invC1, invC2 float64) {
	grad, m, v = grad[:len(val)], m[:len(val)], v[:len(val)]
	n := 0
	if useAVX2 && len(val) >= 4 {
		n = len(val) &^ 3
		adamStepAVX2(&val[0], &grad[0], &m[0], &v[0], n, lr, beta1, beta2, eps, invC1, invC2)
	}
	adamStepRef(val[n:], grad[n:], m[n:], v[n:], lr, beta1, beta2, eps, invC1, invC2)
}

// dropoutMaskRef is the reference loop of DropoutMask.
func dropoutMaskRef(dst, x, mask []float64, words []uint64, keep uint64, scale float64) {
	mult := [2]float64{0, scale}
	mask, dst = mask[:len(x)], dst[:len(x)] // bounds-check elimination hints
	for i := range x {
		lane := words[i/2] >> (32 * (uint(i) % 2)) & (1<<32 - 1)
		m := mult[(lane-keep)>>63] // scale when lane < keep
		mask[i], dst[i] = m, x[i]*m
	}
}

// DropoutMask fills dst with an inverted-dropout sample of x and records
// the applied multipliers in mask: unit i survives, times scale, when its
// 32-bit lane of the stream — the low half of words[i/2] for an even i, the
// high half for an odd one — is below keep, so keep/2³² is the survival
// probability; else it is zero. words holds ceil(len(x)/2) random words;
// dst and mask have x's length.
func DropoutMask(dst, x, mask []float64, words []uint64, keep uint64, scale float64) {
	dst, mask, words = dst[:len(x)], mask[:len(x)], words[:(len(x)+1)/2]
	n := 0
	if useAVX2 && len(x) >= 4 {
		n = len(x) &^ 3
		dropoutMaskAVX2(&dst[0], &x[0], &mask[0], &words[0], n, keep, scale)
	}
	dropoutMaskRef(dst[n:], x[n:], mask[n:], words[n/2:], keep, scale)
}

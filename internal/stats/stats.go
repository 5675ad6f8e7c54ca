// Package stats provides the statistical machinery the Learning Everywhere
// experiments rely on: streaming moments and histograms for simulation
// observables, autocorrelation for deciding when simulation samples are
// statistically independent (paper §III-D, "block at a timescale ...
// greater than the autocorrelation time d_c"),
// regression metrics for surrogate accuracy, and interval-coverage checks
// for UQ validation (paper §III-B).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
// It returns NaN for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Welford is a numerically stable streaming accumulator for mean and
// variance. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations folded in.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased running variance, or NaN for n<2.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation seen; NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation seen; NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Merge combines another accumulator into this one (parallel reduction).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	mean := w.mean + delta*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n, w.mean, w.m2 = n, mean, m2
}

// Histogram is a fixed-range uniform-bin histogram.
type Histogram struct {
	Lo, Hi   float64
	Counts   []int
	Under    int // observations below Lo
	Over     int // observations at or above Hi
	binWidth float64
}

// NewHistogram builds a histogram over [lo, hi) with the given bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), binWidth: (hi - lo) / float64(bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.binWidth)
		if i >= len(h.Counts) { // float edge case at upper bound
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.binWidth
}

// Density returns the normalized probability density in bin i.
func (h *Histogram) Density(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(t) * h.binWidth)
}

// Autocorrelation returns the normalized autocorrelation function of xs up
// to maxLag (inclusive). acf[0] == 1 for non-degenerate input.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	m := Mean(xs)
	denom := 0.0
	for _, x := range xs {
		d := x - m
		denom += d * d
	}
	acf := make([]float64, maxLag+1)
	if denom == 0 {
		acf[0] = 1
		return acf
	}
	for lag := 0; lag <= maxLag; lag++ {
		num := 0.0
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - m) * (xs[i+lag] - m)
		}
		acf[lag] = num / denom
	}
	return acf
}

// IntegratedAutocorrTime estimates the integrated autocorrelation time
// tau = 1 + 2*sum(acf) using the initial-positive-sequence truncation:
// the sum stops at the first non-positive acf value. For i.i.d. data it
// returns ~1. The paper uses this timescale (d_c) to decide the blocking
// interval between training samples (§III-D).
func IntegratedAutocorrTime(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	denom := 0.0
	for _, x := range xs {
		d := x - m
		denom += d * d
	}
	if denom == 0 {
		return 1
	}
	// Compute acf lag by lag and stop at the first non-positive value;
	// this keeps the estimator O(n * tau) instead of O(n^2).
	tau := 1.0
	for lag := 1; lag <= n/2; lag++ {
		num := 0.0
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - m) * (xs[i+lag] - m)
		}
		rho := num / denom
		if rho <= 0 {
			break
		}
		tau += 2 * rho
	}
	return tau
}

// MAE returns the mean absolute error between predictions and targets.
func MAE(pred, target []float64) float64 {
	mustSameLen(pred, target)
	if len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - target[i])
	}
	return s / float64(len(pred))
}

// RMSE returns the root mean squared error between predictions and targets.
func RMSE(pred, target []float64) float64 {
	mustSameLen(pred, target)
	if len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// R2 returns the coefficient of determination of pred against target.
// A perfect predictor scores 1; predicting the target mean scores 0.
func R2(pred, target []float64) float64 {
	mustSameLen(pred, target)
	if len(pred) == 0 {
		return math.NaN()
	}
	m := Mean(target)
	ssRes, ssTot := 0.0, 0.0
	for i := range pred {
		d := target[i] - pred[i]
		ssRes += d * d
		e := target[i] - m
		ssTot += e * e
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

// Coverage returns the fraction of targets that fall inside their
// prediction interval [lo[i], hi[i]]. It is the empirical check used to
// validate dropout-based UQ (§III-B): a (1-alpha) interval should cover
// roughly (1-alpha) of held-out targets.
func Coverage(target, lo, hi []float64) float64 {
	mustSameLen(target, lo)
	mustSameLen(target, hi)
	if len(target) == 0 {
		return math.NaN()
	}
	in := 0
	for i := range target {
		if target[i] >= lo[i] && target[i] <= hi[i] {
			in++
		}
	}
	return float64(in) / float64(len(target))
}

func mustSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic("stats: length mismatch")
	}
}

// Package stats provides the statistical machinery the Learning Everywhere
// experiments rely on: streaming moments for simulation observables, the
// log-linear latency histogram every serving layer reports percentiles
// from, autocorrelation for deciding when simulation samples are
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
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

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

package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean %g want 5", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("variance %g want %g", v, 32.0/7.0)
	}
}

func TestMeanEmptyNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of one sample should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max wrong: %g %g", Min(xs), Max(xs))
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := xrand.New(1)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.Normal(2, 3)
		w.Add(xs[i])
	}
	if !almostEq(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("welford mean %g batch %g", w.Mean(), Mean(xs))
	}
	if !almostEq(w.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("welford var %g batch %g", w.Variance(), Variance(xs))
	}
	if w.Min() != Min(xs) || w.Max() != Max(xs) {
		t.Fatal("welford min/max mismatch")
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := xrand.New(2)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.Float64() * 10
	}
	var whole, left, right Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 150 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged n %d want %d", left.N(), whole.N())
	}
	if !almostEq(left.Mean(), whole.Mean(), 1e-9) || !almostEq(left.Variance(), whole.Variance(), 1e-9) {
		t.Fatal("merged moments mismatch")
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Fatal("merge with empty changed accumulator")
	}
	b.Merge(&a)
	if b.N() != 2 || b.Mean() != 2 {
		t.Fatal("merge into empty failed")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 11} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d want 1/2", h.Under, h.Over)
	}
	if h.Total() != 4 {
		t.Fatalf("total %d want 4", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Fatalf("bin counts wrong: %v", h.Counts)
	}
	if c := h.BinCenter(0); !almostEq(c, 0.5, 1e-12) {
		t.Fatalf("bin center %g want 0.5", c)
	}
}

func TestHistogramDensityNormalizes(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	rng := xrand.New(3)
	for i := 0; i < 10000; i++ {
		h.Add(rng.Float64())
	}
	sum := 0.0
	for i := range h.Counts {
		sum += h.Density(i) * 0.25
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("density integrates to %g", sum)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(1, 0, 5)
}

func TestAutocorrelationIID(t *testing.T) {
	rng := xrand.New(4)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	acf := Autocorrelation(xs, 10)
	if !almostEq(acf[0], 1, 1e-12) {
		t.Fatalf("acf[0] = %g want 1", acf[0])
	}
	for lag := 1; lag <= 10; lag++ {
		if math.Abs(acf[lag]) > 0.05 {
			t.Fatalf("iid acf[%d] = %g, want ~0", lag, acf[lag])
		}
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with phi=0.8 has acf[k] ~ 0.8^k and tau ~ (1+phi)/(1-phi) = 9.
	rng := xrand.New(5)
	const phi = 0.8
	xs := make([]float64, 200000)
	x := 0.0
	for i := range xs {
		x = phi*x + rng.NormFloat64()
		xs[i] = x
	}
	acf := Autocorrelation(xs, 5)
	if !almostEq(acf[1], phi, 0.05) {
		t.Fatalf("AR1 acf[1] = %g want ~%g", acf[1], phi)
	}
	tau := IntegratedAutocorrTime(xs)
	if tau < 6 || tau > 12 {
		t.Fatalf("AR1 tau = %g want ~9", tau)
	}
}

func TestIntegratedAutocorrTimeIID(t *testing.T) {
	rng := xrand.New(6)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	tau := IntegratedAutocorrTime(xs)
	if tau < 0.5 || tau > 2 {
		t.Fatalf("iid tau = %g want ~1", tau)
	}
}

func TestBlockAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	blocks := BlockAverage(xs, 2)
	want := []float64{1.5, 3.5, 5.5}
	if len(blocks) != len(want) {
		t.Fatalf("got %d blocks want %d", len(blocks), len(want))
	}
	for i := range want {
		if !almostEq(blocks[i], want[i], 1e-12) {
			t.Fatalf("block %d = %g want %g", i, blocks[i], want[i])
		}
	}
}

func TestBlockAveragePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero block size did not panic")
		}
	}()
	BlockAverage([]float64{1}, 0)
}

func TestStandardErrorBlockedCorrelated(t *testing.T) {
	// For correlated data, blocked SE at large block size should exceed the
	// naive i.i.d. SE (which underestimates for positively correlated data).
	rng := xrand.New(7)
	const phi = 0.9
	xs := make([]float64, 100000)
	x := 0.0
	for i := range xs {
		x = phi*x + rng.NormFloat64()
		xs[i] = x
	}
	naive := StdDev(xs) / math.Sqrt(float64(len(xs)))
	blocked := StandardErrorBlocked(xs, 1000)
	if blocked <= naive {
		t.Fatalf("blocked SE %g should exceed naive %g for AR(1)", blocked, naive)
	}
}

func TestRegressionMetricsPerfect(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if MAE(y, y) != 0 || RMSE(y, y) != 0 {
		t.Fatal("perfect prediction should have zero error")
	}
	if r2 := R2(y, y); r2 != 1 {
		t.Fatalf("perfect R2 = %g", r2)
	}
}

func TestR2MeanPredictorIsZero(t *testing.T) {
	target := []float64{1, 2, 3, 4, 5}
	m := Mean(target)
	pred := []float64{m, m, m, m, m}
	if r2 := R2(pred, target); !almostEq(r2, 0, 1e-12) {
		t.Fatalf("mean-predictor R2 = %g want 0", r2)
	}
}

func TestMAERMSEKnown(t *testing.T) {
	pred := []float64{1, 2, 3}
	target := []float64{2, 2, 5}
	if mae := MAE(pred, target); !almostEq(mae, 1, 1e-12) {
		t.Fatalf("MAE %g want 1", mae)
	}
	if rmse := RMSE(pred, target); !almostEq(rmse, math.Sqrt(5.0/3.0), 1e-12) {
		t.Fatalf("RMSE %g", rmse)
	}
}

func TestMAPESkipsSmallTargets(t *testing.T) {
	pred := []float64{1.1, 5, 100}
	target := []float64{1, 0, 100}
	got := MAPE(pred, target, 1e-9)
	if !almostEq(got, 5, 1e-9) { // only entries 0 (10%) and 2 (0%) count -> 5%
		t.Fatalf("MAPE %g want 5", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if p := Pearson(xs, ys); !almostEq(p, 1, 1e-12) {
		t.Fatalf("Pearson %g want 1", p)
	}
	neg := []float64{8, 6, 4, 2}
	if p := Pearson(xs, neg); !almostEq(p, -1, 1e-12) {
		t.Fatalf("Pearson %g want -1", p)
	}
}

func TestCoverage(t *testing.T) {
	target := []float64{1, 2, 3, 4}
	lo := []float64{0, 2, 4, 0}
	hi := []float64{2, 2, 5, 3}
	if c := Coverage(target, lo, hi); !almostEq(c, 0.5, 1e-12) {
		t.Fatalf("coverage %g want 0.5", c)
	}
}

// Property: variance is invariant under shift, scales with square of factor.
func TestVariancePropertiesQuick(t *testing.T) {
	rng := xrand.New(9)
	if err := quick.Check(func(shiftRaw, scaleRaw uint8) bool {
		shift := float64(shiftRaw) - 128
		scale := 1 + float64(scaleRaw)/32
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		v := Variance(xs)
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + shift
			scaled[i] = xs[i] * scale
		}
		return almostEq(Variance(shifted), v, 1e-6*math.Max(1, math.Abs(v))) &&
			almostEq(Variance(scaled), v*scale*scale, 1e-6*math.Max(1, v*scale*scale))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSE >= MAE always (Jensen).
func TestRMSEGeqMAEQuick(t *testing.T) {
	rng := xrand.New(10)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%32) + 2
		pred := make([]float64, n)
		target := make([]float64, n)
		for i := 0; i < n; i++ {
			pred[i] = rng.NormFloat64()
			target[i] = rng.NormFloat64()
		}
		return RMSE(pred, target) >= MAE(pred, target)-1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsPanicOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MAE([]float64{1}, []float64{1, 2})
}

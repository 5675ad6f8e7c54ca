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

package core

import (
	"math"
	"testing"

	"repro/internal/surrogatetest"
	"repro/internal/tensor"
)

// uqSur predicts the mean of its training targets with a fixed claimed
// uncertainty — a model whose rejected-lookup stream the drift tests
// can calibrate exactly.
func uqSur(sigma float64) Surrogate { return surrogatetest.Mean(sigma) }

func TestCorrectedResid(t *testing.T) {
	// A model expecting residuals above the baseline has its observation
	// scaled down by exactly the inflation: a calibrated rejected point
	// (resid == expected) folds in at the baseline.
	base := 0.01
	expAbs := 1.0
	if got := correctedResid(expAbs, expAbs, base); math.Abs(got-base) > 1e-15 {
		t.Errorf("calibrated rejected residual folded to %g, want baseline %g", got, base)
	}
	// Triple the expectation → triple the baseline.
	if got := correctedResid(3*expAbs, expAbs, base); math.Abs(got-3*base) > 1e-12 {
		t.Errorf("3× residual folded to %g, want %g", got, 3*base)
	}
	// Expectation at or below the baseline: no correction.
	if got := correctedResid(0.5, 0.004, base); got != 0.5 {
		t.Errorf("low-uncertainty residual rescaled to %g, want raw 0.5", got)
	}
	// Floored baseline keeps a zero-residual model's corrections finite.
	if got := correctedResid(1, 2, 0); got <= 0 || math.IsInf(got, 0) {
		t.Errorf("zero-baseline correction produced %g", got)
	}
}

// driftQueryWrapper builds a 1-shard wrapper whose every query is
// UQ-rejected (claimed σ above the threshold) so each one falls back to
// the oracle and feeds the drift tracker.
func driftQueryWrapper(oracle Oracle) *ShardedWrapper {
	return NewShardedWrapper(oracle, func() Surrogate { return uqSur(1) }, ShardedConfig{
		Router:          HashRouter{Shards: 1},
		MinTrainSamples: 4,
		RetrainEvery:    0,   // drift is the only retrain trigger
		UQThreshold:     0.5, // σ=1 → every lookup rejected
		DriftFactor:     2,
	})
}

func seedDriftWrapper(t *testing.T, w *ShardedWrapper) {
	t.Helper()
	xs := tensor.NewMatrix(8, 2)
	ys := tensor.NewMatrix(8, 1)
	for i := 0; i < 8; i++ {
		xs.Set(i, 0, float64(i))
		ys.Set(i, 0, 1)
	}
	if err := w.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	if g := w.Status()[0].Generation; g < 0 {
		t.Fatal("model never published")
	}
}

// TestQueryFallbackDrift pins the satellite contract: UQ-rejected
// oracle fallbacks on the single-query path feed the drift EWMA, with
// the bias correction keeping a calibrated model clean — residuals the
// model's own uncertainty explains do not trip the flag; residuals far
// beyond it do.
func TestQueryFallbackDrift(t *testing.T) {
	truth := 1 + expectedAbsFactor // exactly the model's expected |resid| for σ=1
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{truth}, nil
	}}
	w := driftQueryWrapper(oracle)
	seedDriftWrapper(t, w)

	// Calibrated fallbacks: the model predicted this residual. No trip.
	for i := 0; i < 12; i++ {
		if _, src, _, err := w.Query([]float64{float64(i), 0}); err != nil || src != FromSimulation {
			t.Fatalf("query = (%v, %v), want oracle fallback", src, err)
		}
	}
	if st := w.Status()[0]; st.Drifted {
		t.Fatalf("calibrated fallbacks tripped drift: %+v", st)
	}

	// Drifted oracle: residual ≫ the claimed uncertainty. The EWMA
	// crosses the factor within four such fallbacks.
	truth = 10
	var st ShardStatus
	for i := 0; i < 4 && !st.Drifted; i++ {
		if _, src, _, err := w.Query([]float64{100 + float64(i), 0}); err != nil || src != FromSimulation {
			t.Fatalf("query = (%v, %v), want oracle fallback", src, err)
		}
		st = w.Status()[0]
	}
	if !st.Drifted || st.DriftRatio <= 2 {
		t.Fatalf("drifted fallback did not trip: %+v", st)
	}
}

// TestBatchFallbackDrift pins the same contract on the batch path
// (QueryBatchInto → foldFallbackResiduals).
func TestBatchFallbackDrift(t *testing.T) {
	truth := 1 + expectedAbsFactor
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{truth}, nil
	}}
	w := driftQueryWrapper(oracle)
	seedDriftWrapper(t, w)

	batch := func(n int, x0 float64) {
		t.Helper()
		xs := tensor.NewMatrix(n, 2)
		for i := 0; i < n; i++ {
			xs.Set(i, 0, x0+float64(i))
		}
		res, err := w.QueryBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Err != nil || res[i].Src != FromSimulation {
				t.Fatalf("row %d = (%v, %v), want oracle fallback", i, res[i].Src, res[i].Err)
			}
		}
	}

	batch(12, 0)
	if st := w.Status()[0]; st.Drifted {
		t.Fatalf("calibrated batch fallbacks tripped drift: %+v", st)
	}

	truth = 10
	batch(4, 100)
	st := w.Status()[0]
	if !st.Drifted || st.DriftRatio <= 2 {
		t.Fatalf("drifted batch fallback did not trip: %+v", st)
	}
}
